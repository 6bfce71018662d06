package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"

	"mrbc/internal/clusterrun"
)

// memSample is a reading of the Go runtime's own counters.
type memSample struct {
	numGC      uint32
	totalAlloc uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds
}

// memDelta is the runtime activity over one job.
type memDelta struct {
	gcCycles float64
	allocMB  float64
	gcCPU    float64 // GC share of the process's CPU time
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := memSample{numGC: ms.NumGC, totalAlloc: ms.TotalAlloc}
	metrics.Read(cpuMetrics)
	if v := cpuMetrics[0].Value; v.Kind() == metrics.KindFloat64 {
		s.gcCPU = v.Float64()
	}
	if v := cpuMetrics[1].Value; v.Kind() == metrics.KindFloat64 {
		s.totalCPU = v.Float64()
	}
	return s
}

func (s memSample) sub(o memSample) memDelta {
	d := memDelta{
		gcCycles: float64(s.numGC - o.numGC),
		allocMB:  float64(s.totalAlloc-o.totalAlloc) / (1 << 20),
	}
	if cpu := s.totalCPU - o.totalCPU; cpu > 0 {
		d.gcCPU = (s.gcCPU - o.gcCPU) / cpu
	}
	return d
}

// rssProbe measures the peak resident set of the processes a job runs
// in: this process, plus the bcd daemons for a TCP workload. Each
// process's high-water mark (VmHWM) is reset through clear_refs before
// the job and read after it.
type rssProbe struct {
	pids []int
}

func startRSS(c *clusterrun.Cluster) *rssProbe {
	p := &rssProbe{pids: []int{os.Getpid()}}
	if c != nil {
		p.pids = append(p.pids, childPIDs()...)
	}
	// Return freed heap to the OS first, so the mark starts from what
	// the process holds live rather than from an earlier job's peak.
	debug.FreeOSMemory()
	for _, pid := range p.pids {
		// Without the reset VmHWM still bounds the job's peak from
		// above; the reading stays meaningful, so a failure is ignored.
		_ = os.WriteFile(procPath(pid, "clear_refs"), []byte("5"), 0)
	}
	return p
}

func (p *rssProbe) peakMB() float64 {
	var kb float64
	for _, pid := range p.pids {
		kb += statusKB(pid, "VmHWM:")
	}
	return kb / 1024
}

func procPath(pid int, name string) string {
	return "/proc/" + strconv.Itoa(pid) + "/" + name
}

// statusKB reads one "Key: <n> kB" line of /proc/<pid>/status.
func statusKB(pid int, key string) float64 {
	raw, err := os.ReadFile(procPath(pid, "status"))
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == key {
			v, _ := strconv.ParseFloat(f[1], 64)
			return v
		}
	}
	return 0
}

// childPIDs lists this process's live children (the bcd daemons; the
// benchmark starts no other processes).
func childPIDs() []int {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	self := os.Getpid()
	var pids []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		raw, err := os.ReadFile(procPath(pid, "stat"))
		if err != nil {
			continue
		}
		// stat is "pid (comm) state ppid ...": comm may hold spaces, so
		// fields are counted after its closing parenthesis.
		i := bytes.LastIndexByte(raw, ')')
		if i < 0 {
			continue
		}
		f := strings.Fields(string(raw[i+1:]))
		if len(f) >= 2 {
			if ppid, _ := strconv.Atoi(f[1]); ppid == self {
				pids = append(pids, pid)
			}
		}
	}
	return pids
}

// environment is recorded with every result.
type environment struct {
	Workload         string `json:"workload"`
	Seed             int64  `json:"seed"`
	NProc            int    `json:"nproc"`
	GOMAXPROCS       int    `json:"gomaxprocs"`
	DaemonGOMAXPROCS string `json:"daemon_gomaxprocs,omitempty"`
	CPU              string `json:"cpu"`
	GoVersion        string `json:"go_version"`
	Hosts            int    `json:"hosts"`
	BatchSize        int    `json:"batch_size"`
	Sources          int    `json:"sources"`
	Vertices         int    `json:"vertices"`
	Edges            int64  `json:"edges"`
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
