package mysrb

import (
	"fmt"
	"net/http"

	"gosrb/internal/report"
)

// handleIncidentFile serves one member of an incident bundle as a raw
// download; the recorder validates the id and file name against
// traversal before touching disk.
func (a *App) handleIncidentFile(w http.ResponseWriter, r *http.Request, user string) {
	name := r.URL.Query().Get("file")
	meta, data, err := report.Bundle(a.env, r.URL.Query().Get("id"), name)
	if err != nil || name == "" {
		http.Error(w, fmt.Sprintf("no such bundle file: %v", err), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", meta.ID+"-"+name))
	w.Write(data)
}
