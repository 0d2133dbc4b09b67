package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// procUsage is the process's resource use so far, from getrusage.
type procUsage struct {
	cpu       time.Duration // user + system
	maxRSSMiB float64
}

func usage() procUsage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procUsage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	// Linux reports ru_maxrss in KiB.
	return procUsage{cpu: tv(ru.Utime) + tv(ru.Stime), maxRSSMiB: float64(ru.Maxrss) / 1024}
}

var calibSink float64

// calibNS times a fixed pure-Go floating-point kernel and returns the fastest
// of three passes in nanoseconds. It does the same work on every host and in
// every run, so a high reading marks a slow epoch of the machine; it is
// reported, never used to normalise another metric.
func calibNS() float64 {
	best := time.Duration(1 << 62)
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		x := 1.0
		for i := 0; i < 1<<21; i++ {
			x = x*0.9999999 + 0.5/(x+float64(i&7))
		}
		calibSink += x
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds())
}

// fingerprint identifies the host and build a result was measured on.
type fingerprint struct {
	CPU    string `json:"cpu"`
	NProc  int    `json:"nproc"`
	Go     string `json:"go"`
	Commit string `json:"commit"`
}

func hostFingerprint(root string) fingerprint {
	fp := fingerprint{CPU: "unknown", NProc: runtime.NumCPU(), Go: runtime.Version(), Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// The driver's checkout is not a git repository; read the ref by hand
	// where there is one and say "unknown" otherwise.
	if head, err := os.ReadFile(root + "/.git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(root + "/.git/" + name); err == nil {
				ref = strings.TrimSpace(string(b))
			}
		}
		if len(ref) >= 12 {
			fp.Commit = ref[:12]
		}
	}
	return fp
}
