package experiments

import (
	"fmt"
	"time"

	"gosrb/internal/container"
	"gosrb/internal/core"
	"gosrb/internal/mcat"
	"gosrb/internal/repair"
	"gosrb/internal/resilience"
	"gosrb/internal/simnet"
	"gosrb/internal/storage"
	"gosrb/internal/storage/archivefs"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
	"gosrb/internal/workload"
)

// simClock accumulates simulated waiting time instead of sleeping, so
// WAN experiments run instantly while reporting network-dominated
// numbers.
type simClock struct{ total time.Duration }

func (c *simClock) sleep(d time.Duration) { c.total += d }

// E1ContainerWAN reproduces the container claim: aggregating small
// files "decreas[es] latency when accessed over a wide area network"
// (paper §2). N small files are read across a simulated WAN either one
// by one (an RTT per file) or by staging their container once and
// reading members locally.
func E1ContainerWAN(scale int) Table {
	nFiles := 200 * scale
	fileSize := 2048
	gen := workload.NewGen(1)
	data := make([][]byte, nFiles)
	for i := range data {
		data[i] = gen.Bytes(fileSize)
	}

	t := Table{
		ID:      "E1",
		Title:   "small-file access over a WAN: per-file vs container",
		Claim:   `"aggregating small data files into ... containers ... decreasing latency when accessed over a wide area network" (§2)`,
		Columns: []string{"rtt_ms", "files", "direct_ms", "container_ms", "speedup"},
		Notes:   fmt.Sprintf("%d files x %d B, 10 MB/s link; simulated time", nFiles, fileSize),
	}
	for _, rtt := range []time.Duration{time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond} {
		profile := simnet.LinkProfile{RTT: rtt, BandwidthBytesPerSec: 10 << 20}

		// Remote site holds the files and the container segment.
		remote := memfs.New()
		for i := range data {
			storage.WriteAll(remote, fmt.Sprintf("/files/f%06d", i), data[i])
		}
		w, _ := container.NewWriter(remote, "/seg")
		offsets := make([]int64, nFiles)
		for i := range data {
			offsets[i], _ = w.Append(data[i])
		}

		// Direct: every file is a fresh WAN request.
		clock := &simClock{}
		wan := simnet.WrapDriver(remote, profile, clock.sleep)
		for i := range data {
			if _, err := storage.ReadAll(wan, fmt.Sprintf("/files/f%06d", i)); err != nil {
				panic(err)
			}
		}
		direct := clock.total

		// Container: one WAN transfer stages the segment, members read
		// locally from the staged copy.
		clock2 := &simClock{}
		wan2 := simnet.WrapDriver(remote, profile, clock2.sleep)
		local := memfs.New()
		if _, err := storage.Copy(local, "/seg", wan2, "/seg"); err != nil {
			panic(err)
		}
		for i := range data {
			if _, err := container.Read(local, "/seg", offsets[i], int64(len(data[i]))); err != nil {
				panic(err)
			}
		}
		contTime := clock2.total

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", rtt.Milliseconds()),
			fmt.Sprintf("%d", nFiles),
			ms(direct), ms(contTime), ratio(direct, contTime),
		})
	}
	return t
}

// E1aContainerMemberSize is the granularity ablation: how member size
// affects per-member container read cost and full-segment recovery.
func E1aContainerMemberSize(scale int) Table {
	t := Table{
		ID:      "E1a",
		Title:   "ablation: container member granularity",
		Claim:   "containers are 'tarfiles but with more flexibility in accessing and updating files' (§3)",
		Columns: []string{"member_bytes", "members", "read_all_ms", "per_member_us", "scan_ms"},
		Notes:   "local reads; fixed ~2 MiB of payload per row",
	}
	gen := workload.NewGen(2)
	total := 2 << 20 * scale
	for _, size := range []int{256, 4096, 65536} {
		n := total / size
		d := memfs.New()
		w, _ := container.NewWriter(d, "/seg")
		offs := make([]int64, n)
		payload := gen.Bytes(size)
		for i := 0; i < n; i++ {
			offs[i], _ = w.Append(payload)
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := container.Read(d, "/seg", offs[i], int64(size)); err != nil {
				panic(err)
			}
		}
		readAll := time.Since(start)
		start = time.Now()
		if _, err := container.Scan(d, "/seg"); err != nil {
			panic(err)
		}
		scan := time.Since(start)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", size),
			fmt.Sprintf("%d", n),
			ms(readAll),
			us(readAll / time.Duration(n)),
			ms(scan),
		})
	}
	return t
}

// E7SyncIngest measures synchronous replication on ingest into logical
// resources: "storing a file into logrsrc1 will ingest the file into
// both physical resources ... synchronously" (§5). Per-ingest cost
// grows with the member count, the price of immediate consistency.
func E7SyncIngest(scale int) Table {
	t := Table{
		ID:      "E7",
		Title:   "synchronous ingest into logical resources",
		Claim:   `"the file is replicated and stored in the underlying physical resources ... synchronously" (§5)`,
		Columns: []string{"members", "files", "sim_ms_per_ingest", "relative"},
		Notes:   "each member is 5 ms RTT away at 50 MB/s; 64 KiB files; simulated time",
	}
	nFiles := 20 * scale
	gen := workload.NewGen(3)
	payload := gen.Bytes(64 << 10)
	var base time.Duration
	for _, k := range []int{1, 2, 4} {
		cat := mcat.New("admin", "sdsc")
		b := core.New(cat, "srb1")
		clock := &simClock{}
		profile := simnet.LinkProfile{RTT: 5 * time.Millisecond, BandwidthBytesPerSec: 50 << 20}
		names := make([]string, k)
		for i := 0; i < k; i++ {
			names[i] = fmt.Sprintf("disk%d", i)
			wan := simnet.WrapDriver(memfs.New(), profile, clock.sleep)
			if err := b.AddPhysicalResource("admin", names[i], types.ClassFileSystem, "memfs", wan); err != nil {
				panic(err)
			}
		}
		target := names[0]
		if k > 1 {
			if err := b.AddLogicalResource("admin", "lr", names); err != nil {
				panic(err)
			}
			target = "lr"
		}
		cat.MkColl("/d", "admin")
		for i := 0; i < nFiles; i++ {
			if _, err := b.Ingest("admin", core.IngestOpts{
				Path: fmt.Sprintf("/d/f%04d", i), Data: payload, Resource: target,
			}); err != nil {
				panic(err)
			}
		}
		per := clock.total / time.Duration(nFiles)
		if k == 1 {
			base = per
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k), fmt.Sprintf("%d", nFiles), ms(per), ratio(per, base),
		})
	}
	return t
}

// E10ArchiveCache measures the archive staging regime and the pin
// mechanism: "pinning a file in a cache resource from being purged by
// SRB when performing cache management" (§5).
func E10ArchiveCache(scale int) Table {
	t := Table{
		ID:      "E10",
		Title:   "archive staging vs cache replicas; pins survive purges",
		Claim:   `"Pin operation makes sure that a SRB object does not get deleted from a particular resource" (§5)`,
		Columns: []string{"scenario", "sim_ms_per_read", "archive_stages"},
		Notes:   "archive: 50 ms stage latency; reads of 30 x 8 KiB objects; simulated time",
	}
	nObjs := 30 * scale
	gen := workload.NewGen(4)

	cat := mcat.New("admin", "sdsc")
	b := core.New(cat, "srb1")
	clock := &simClock{}
	arch := archivefs.New(archivefs.Config{StageLatency: 50 * time.Millisecond, StageCapacity: 8})
	arch.SetSleep(clock.sleep)
	cache := memfs.New()
	if err := b.AddPhysicalResource("admin", "tape", types.ClassArchive, "archivefs", arch); err != nil {
		panic(err)
	}
	if err := b.AddPhysicalResource("admin", "cache1", types.ClassCache, "memfs", cache); err != nil {
		panic(err)
	}
	cat.MkColl("/a", "admin")
	paths := make([]string, nObjs)
	for i := range paths {
		paths[i] = fmt.Sprintf("/a/o%04d", i)
		if _, err := b.Ingest("admin", core.IngestOpts{Path: paths[i], Data: gen.Bytes(8 << 10), Resource: "tape"}); err != nil {
			panic(err)
		}
	}
	// Writing staged everything, but capacity 8 means most were evicted.
	readAll := func() time.Duration {
		start := clock.total
		for _, p := range paths {
			if _, err := b.Get("admin", p); err != nil {
				panic(err)
			}
		}
		return (clock.total - start) / time.Duration(nObjs)
	}
	stagesBefore := arch.Stats().Stages
	cold := readAll()
	t.Rows = append(t.Rows, []string{"archive, cold (LRU thrash)", ms(cold), fmt.Sprintf("%d", arch.Stats().Stages-stagesBefore)})

	// Replicate the working set onto the cache: reads go latency-free.
	for _, p := range paths {
		if _, err := b.Replicate("admin", p, "cache1"); err != nil {
			panic(err)
		}
	}
	b.Replicas().SetPolicy(0) // FirstAlive would pick tape; prefer cache explicitly below
	stagesBefore = arch.Stats().Stages
	start := clock.total
	for _, p := range paths {
		if _, _, err := b.Replicas().ReadAll(p, "cache1"); err != nil {
			panic(err)
		}
	}
	cached := (clock.total - start) / time.Duration(nObjs)
	t.Rows = append(t.Rows, []string{"cache replica", ms(cached), fmt.Sprintf("%d", arch.Stats().Stages-stagesBefore)})

	// Pin a quarter of the set, purge the cache, re-read: pinned objects
	// stay fast, purged ones pay the stage latency again.
	for i := 0; i < nObjs/4; i++ {
		if err := b.Pin("admin", paths[i], "cache1", time.Hour); err != nil {
			panic(err)
		}
	}
	if _, err := b.PurgeCache("admin", "cache1", 0); err != nil {
		panic(err)
	}
	stagesBefore = arch.Stats().Stages
	start = clock.total
	for _, p := range paths {
		if _, _, err := b.Replicas().ReadAll(p, "cache1"); err != nil {
			panic(err)
		}
	}
	afterPurge := (clock.total - start) / time.Duration(nObjs)
	t.Rows = append(t.Rows, []string{"after purge (25% pinned)", ms(afterPurge), fmt.Sprintf("%d", arch.Stats().Stages-stagesBefore)})
	return t
}

// newReplRig builds a one-broker rig with a 3-member logical resource
// whose members sit behind a simulated 2ms-RTT link (the regime where
// synchronous fan-out hurts), plus a running repair engine draining the
// deferred fan-out. policy "" is the sync default.
func newReplRig(policy string) (*core.Broker, *mcat.Catalog, func()) {
	cat := mcat.New("admin", "sdsc")
	br := core.New(cat, "srb1")
	profile := simnet.LinkProfile{RTT: 2 * time.Millisecond}
	names := []string{"w1", "w2", "w3"}
	for _, n := range names {
		if err := br.AddPhysicalResource("admin", n, types.ClassFileSystem, "memfs",
			simnet.WrapDriver(memfs.New(), profile, nil)); err != nil {
			panic(err)
		}
	}
	if err := br.AddLogicalResourcePolicy("admin", "lr", names, policy); err != nil {
		panic(err)
	}
	cat.MkColl("/d", "admin")
	eng := repair.New(repair.Config{
		Workers: 4,
		Queue:   cat,
		Exec:    br.RunRepairTask,
		Metrics: br.Metrics(),
		Backoff: resilience.Policy{BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
		Poll:    time.Millisecond,
		Server:  "srb1",
		Seed:    1,
	})
	br.SetRepair(eng)
	eng.Start()
	return br, cat, eng.Stop
}

// replRound ingests nFiles onto a fresh rig under policy and returns the
// client-visible time per ingest and how long the repair queue then took
// to empty.
func replRound(policy string, nFiles int, payload []byte) (per, drain time.Duration) {
	br, cat, stop := newReplRig(policy)
	defer stop()
	start := time.Now()
	for i := 0; i < nFiles; i++ {
		if _, err := br.Ingest("admin", core.IngestOpts{
			Path: fmt.Sprintf("/d/f%09d", i), Data: payload, Resource: "lr",
		}); err != nil {
			panic(err)
		}
	}
	per = time.Since(start) / time.Duration(nFiles)
	drainStart := time.Now()
	for {
		if n, _ := cat.RepairBacklog(); n == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return per, time.Since(drainStart)
}

// E13AsyncIngest compares client-visible ingest latency onto a
// 3-member logical resource under the sync default (the write path pays
// every member's RTT, E7's cost) against async:1 (one replica lands
// synchronously, the repair engine fans out the rest off the client's
// clock). The drain column shows the cost did not vanish — it moved.
func E13AsyncIngest(scale int) Table {
	nFiles := 40 * scale
	t := Table{
		ID:      "E13",
		Title:   "asynchronous replication: async:1 vs synchronous fan-out",
		Claim:   `"the file is replicated and stored in the underlying physical resources" (§5) — deferring all but one replica takes the fan-out off the write path`,
		Columns: []string{"policy", "files", "ms_per_ingest", "speedup_vs_sync", "drain_ms"},
		Notes:   "3 members, each 2 ms RTT away; 8 KiB files; drain = repair queue empty after the last ingest; best of 3 paired rounds; wall clock",
	}
	payload := workload.NewGen(23).Bytes(8 << 10)
	policies := []struct{ name, policy string }{{"sync (default)", ""}, {"async:1", "async:1"}}
	// Rounds alternate the policies so a host stall lands on one round of
	// one policy; each keeps its best round (and that round's drain).
	per := make([]time.Duration, len(policies))
	drain := make([]time.Duration, len(policies))
	for round := 0; round < 3; round++ {
		for i, p := range policies {
			if d, dr := replRound(p.policy, nFiles, payload); round == 0 || d < per[i] {
				per[i], drain[i] = d, dr
			}
		}
	}
	for i, p := range policies {
		t.Rows = append(t.Rows, []string{
			p.name, fmt.Sprintf("%d", nFiles), ms(per[i]), ratio(per[0], per[i]), ms(drain[i]),
		})
	}
	return t
}
