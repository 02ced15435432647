package main

import (
	"encoding/json"
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank percentile of xs (pct in 0..100).
// xs is sorted in place.
func percentile(xs []float64, pct float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(pct / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// cpuTime is the process's user plus system CPU so far: client, server
// and harness together.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's resident-set high-water mark (what
// /proc/self/status calls VmHWM).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fsType names the filesystem holding dir, so a reader of the numbers
// knows what the posixfs syscalls landed on.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "other"
}

// calibrate times a fixed kernel of CPU, allocation and JSON work. It
// runs before and after each measured phase; when the two differ by
// more than 15 % the host was noisy and a comparison against this run
// is unresolved, not a regression.
func calibrate() time.Duration {
	start := time.Now()
	type rec struct {
		Path string
		Size int64
		Tags []string
	}
	var sink int
	for i := 0; i < 4000; i++ {
		r := rec{Path: "/calib/object", Size: int64(i), Tags: []string{"a", "b", "c"}}
		b, _ := json.Marshal(r) // cannot fail: plain struct
		var back rec
		_ = json.Unmarshal(b, &back) // cannot fail: bytes just marshalled
		buf := make([]byte, 4096)
		for j := range buf {
			buf[j] = byte(j + i)
		}
		sink += int(buf[i%4096]) + len(back.Tags)
	}
	calibSink = sink
	return time.Since(start)
}

// calibSink keeps the kernel's result alive.
var calibSink int
