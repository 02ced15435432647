package core

import (
	"errors"
	"fmt"

	"gosrb/internal/acl"
	"gosrb/internal/obs"
	"gosrb/internal/replica"
	"gosrb/internal/resilience"
	"gosrb/internal/types"
)

// This file is the broker side of the background maintenance engine:
// the task executor the repair worker pool calls, and the anti-entropy
// scrubber that walks the catalog, re-hashes replica bytes against the
// stored SHA-256, repairs divergence from a verified source and
// re-replicates under-replicated objects.

// RunRepairTask executes one queued repair task: bring the replica of
// t.Path on t.Resource in line with the catalog. A nil return completes
// the task (including the no-op cases: object deleted, replica already
// clean); any error reschedules it under the engine's backoff.
func (b *Broker) RunRepairTask(t types.RepairTask, sp *obs.Span) error {
	o, err := b.Cat.GetObject(t.Path)
	if err != nil {
		if errors.Is(err, types.ErrNotFound) {
			return nil // the object is gone; nothing left to repair
		}
		return err
	}
	var rep *types.Replica
	for i := range o.Replicas {
		if o.Replicas[i].Resource == t.Resource {
			rep = &o.Replicas[i]
			break
		}
	}
	if rep == nil {
		_, err := b.rm.Replicate(t.Path, t.Resource)
		return err
	}
	if rep.Status == types.ReplicaClean {
		return nil
	}
	return b.rm.SyncResource(t.Path, t.Resource)
}

// scrubObject re-hashes every reachable replica of one file object
// against the catalog checksum, marks divergent replicas dirty, repairs
// them from a just-verified source and re-replicates members of the
// object's logical resources that lost their copy. Replicas on offline
// resources or behind open breakers are skipped; what cannot be
// repaired in-pass is deferred to the repair queue.
func (b *Broker) scrubObject(path string, sp *obs.Span, rpt *types.ScrubReport) {
	o, err := b.Cat.GetObject(path)
	if err != nil || o.Kind != types.KindFile || o.Container != "" || o.Checksum == "" {
		return
	}
	rpt.Objects++
	needRepair := false
	for _, r := range o.Replicas {
		if r.Registered {
			rpt.Skipped++ // bytes SRB does not control; checksums may drift
			continue
		}
		if r.Status == types.ReplicaDirty {
			needRepair = true
			continue
		}
		res, rerr := b.Cat.GetResource(r.Resource)
		if rerr != nil || !res.Online {
			rpt.Skipped++
			continue
		}
		if b.breakers.For("resource", r.Resource).State() == resilience.Open {
			sp.Event(obs.EventBreakerFast, "resource."+r.Resource)
			rpt.Skipped++
			continue
		}
		d, derr := b.Driver(r.Resource)
		if derr != nil {
			rpt.Skipped++
			continue
		}
		sum, readErr := replica.ChecksumOf(d, r.PhysicalPath)
		rpt.Scanned++
		if readErr == nil && sum == o.Checksum {
			continue
		}
		rpt.Corrupt++
		needRepair = true
		detail := path + "@" + r.Resource
		if readErr != nil {
			detail += " unreadable"
		} else {
			detail += " divergent"
		}
		sp.Event(obs.EventScrub, detail)
		num := r.Number
		b.Cat.UpdateObject(path, func(o *types.DataObject) error {
			for i := range o.Replicas {
				if o.Replicas[i].Number == num {
					o.Replicas[i].Status = types.ReplicaDirty
				}
			}
			return nil
		})
	}
	if needRepair {
		// Repair from a verified source: every replica still marked
		// clean was just re-hashed against the catalog checksum above.
		o2, err := b.Cat.GetObject(path)
		if err != nil {
			return
		}
		tried := make(map[string]bool)
		for _, r := range o2.Replicas {
			if r.Status != types.ReplicaDirty || tried[r.Resource] {
				continue
			}
			tried[r.Resource] = true
			if err := b.rm.SyncResource(path, r.Resource); err != nil {
				if b.Cat.EnqueueRepair(types.RepairTask{
					Path: path, Resource: r.Resource,
					Kind: "repair", Reason: "scrub: " + err.Error(),
				}) {
					rpt.Enqueued++
				}
			} else {
				rpt.Repaired++
				sp.Event(obs.EventRepair, path+"@"+r.Resource+" repaired")
			}
		}
	}
	b.scrubReplication(path, &o, sp, rpt)
}

// scrubReplication recreates replicas an object lost: for every logical
// resource that already holds at least one of the object's replicas,
// each member without a copy gets one (or a queued task when the member
// is unreachable).
func (b *Broker) scrubReplication(path string, o *types.DataObject, sp *obs.Span, rpt *types.ScrubReport) {
	have := make(map[string]bool, len(o.Replicas))
	for _, r := range o.Replicas {
		have[r.Resource] = true
	}
	for _, res := range b.Cat.Resources() {
		if res.Kind != types.ResourceLogical {
			continue
		}
		hosts := false
		for _, m := range res.Members {
			if have[m] {
				hosts = true
				break
			}
		}
		if !hosts {
			continue
		}
		for _, m := range res.Members {
			if have[m] {
				continue
			}
			have[m] = true // one attempt per member even across logical resources
			mres, err := b.Cat.GetResource(m)
			ok := err == nil && mres.Online &&
				b.breakers.For("resource", m).State() != resilience.Open
			if ok {
				if _, err := b.rm.Replicate(path, m); err == nil {
					rpt.Replicated++
					sp.Event(obs.EventRepair, path+"@"+m+" replicated")
					continue
				}
			}
			if b.Cat.EnqueueRepair(types.RepairTask{
				Path: path, Resource: m,
				Kind: "replicate", Reason: "scrub: under-replicated on " + res.Name,
			}) {
				rpt.Enqueued++
			}
		}
	}
}

// ScrubSubtree runs the scrubber over every object under root — the
// periodic job the repair engine schedules. No access control: the
// engine acts as the daemon itself.
func (b *Broker) ScrubSubtree(root string, sp *obs.Span) types.ScrubReport {
	var rpt types.ScrubReport
	for _, p := range b.Cat.SubtreeObjects(root) {
		b.scrubObject(p, sp, &rpt)
	}
	if rpt.Enqueued > 0 {
		b.repairKick()
	}
	return rpt
}

// Scrub is the on-demand, access-checked scrub behind `srb scrub`: one
// object needs write permission on it, a collection subtree needs
// administrator rights.
func (b *Broker) Scrub(user, path string, sp *obs.Span) (types.ScrubReport, error) {
	path = types.CleanPath(path)
	var rpt types.ScrubReport
	if _, err := b.Cat.GetObject(path); err == nil {
		if err := b.need(user, path, acl.Write, "scrub"); err != nil {
			return rpt, err
		}
		b.scrubObject(path, sp, &rpt)
		if rpt.Enqueued > 0 {
			b.repairKick()
		}
	} else {
		if !b.Cat.CollExists(path) {
			return rpt, types.E("scrub", path, types.ErrNotFound)
		}
		if !b.Cat.IsAdmin(user) {
			b.audit(user, "scrub", path, false, "admin required for subtree scrub")
			return rpt, types.E("scrub", path, types.ErrPermission)
		}
		rpt = b.ScrubSubtree(path, sp)
	}
	b.audit(user, "scrub", path, true, fmt.Sprintf(
		"%d objects, %d scanned, %d corrupt, %d repaired, %d replicated, %d enqueued",
		rpt.Objects, rpt.Scanned, rpt.Corrupt, rpt.Repaired, rpt.Replicated, rpt.Enqueued))
	return rpt, nil
}

// VerifyChecksums re-hashes every replica of one object against the
// catalog checksum and reports a per-resource verdict — the read-only
// `srb checksum` surface (nothing is marked or repaired).
func (b *Broker) VerifyChecksums(user, path string) (types.DataObject, []types.ReplicaVerdict, error) {
	o, err := b.checkRead(user, path, "checksum")
	if err != nil {
		return o, nil, err
	}
	if o.Kind != types.KindFile || o.Container != "" {
		return o, nil, types.E("checksum", path, types.ErrUnsupported)
	}
	verdicts := make([]types.ReplicaVerdict, 0, len(o.Replicas))
	for _, r := range o.Replicas {
		v := types.ReplicaVerdict{
			Number:   int(r.Number),
			Resource: r.Resource,
			Status:   r.Status.String(),
		}
		switch {
		case r.Registered:
			v.Verdict = "unchecked"
			v.Detail = "registered bytes"
		case o.Checksum == "":
			v.Verdict = "unchecked"
			v.Detail = "no catalog checksum"
		default:
			res, rerr := b.Cat.GetResource(r.Resource)
			if rerr != nil || !res.Online {
				v.Verdict = "offline"
				break
			}
			d, derr := b.Driver(r.Resource)
			if derr != nil {
				v.Verdict = "offline"
				v.Detail = "no local driver"
				break
			}
			sum, readErr := replica.ChecksumOf(d, r.PhysicalPath)
			if readErr != nil {
				v.Verdict = "unreadable"
				v.Detail = readErr.Error()
				break
			}
			if sum != o.Checksum {
				v.Verdict = "corrupt"
				v.Detail = "stored " + sum[:12] + "… != catalog " + o.Checksum[:12] + "…"
			} else {
				v.Verdict = "ok"
			}
		}
		verdicts = append(verdicts, v)
	}
	b.audit(user, "checksum", path, true, fmt.Sprintf("%d replicas verified", len(verdicts)))
	return o, verdicts, nil
}
