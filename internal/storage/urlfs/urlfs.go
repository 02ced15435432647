// Package urlfs resolves registered URL objects: "the user can specify
// any URL including ftp calls and cgi queries. On retrieval, the
// contents of the URL are retrieved and displayed. The contents of the
// URL are not stored in the SRB" (paper §5, registration kind 4).
//
// The Fetcher dispatches on scheme: http/https go through an injectable
// HTTP client, and the mem scheme serves from an in-process registry so
// tests and examples run fully offline.
package urlfs

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"gosrb/internal/types"
)

// Handler produces the contents for one registered mem:// URL.
type Handler func() ([]byte, error)

// Fetcher retrieves URL contents at access time. Safe for concurrent
// use.
type Fetcher struct {
	mu       sync.RWMutex
	handlers map[string]Handler // full mem URL -> handler
	client   *http.Client
	// MaxBytes bounds a fetch; zero means 64 MiB.
	MaxBytes int64
}

// NewFetcher returns a Fetcher with a default HTTP client.
func NewFetcher() *Fetcher {
	return &Fetcher{
		handlers: make(map[string]Handler),
		client:   &http.Client{Timeout: 30 * time.Second},
	}
}

// RegisterMem binds contents to a mem:// URL. Registering a nil handler
// removes the binding.
func (f *Fetcher) RegisterMem(memURL string, h Handler) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if h == nil {
		delete(f.handlers, memURL)
		return
	}
	f.handlers[memURL] = h
}

// RegisterMemBytes binds static contents to a mem:// URL.
func (f *Fetcher) RegisterMemBytes(memURL string, data []byte) {
	f.RegisterMem(memURL, func() ([]byte, error) { return data, nil })
}

// Fetch retrieves the contents of rawURL.
func (f *Fetcher) Fetch(rawURL string) ([]byte, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, types.E("fetch", rawURL, types.ErrInvalid)
	}
	max := f.MaxBytes
	if max <= 0 {
		max = 64 << 20
	}
	switch strings.ToLower(u.Scheme) {
	case "mem":
		f.mu.RLock()
		h, ok := f.handlers[rawURL]
		f.mu.RUnlock()
		if !ok {
			return nil, types.E("fetch", rawURL, types.ErrNotFound)
		}
		return h()
	case "http", "https":
		resp, err := f.client.Get(rawURL)
		if err != nil {
			return nil, types.E("fetch", rawURL, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			if resp.StatusCode == http.StatusNotFound {
				return nil, types.E("fetch", rawURL, types.ErrNotFound)
			}
			return nil, types.E("fetch", rawURL, fmt.Errorf("status %s", resp.Status))
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, max+1))
		if err != nil {
			return nil, types.E("fetch", rawURL, err)
		}
		if int64(len(data)) > max {
			return nil, types.E("fetch", rawURL, fmt.Errorf("response exceeds %d bytes: %w", max, types.ErrInvalid))
		}
		return data, nil
	default:
		return nil, types.E("fetch", rawURL, types.ErrUnsupported)
	}
}
