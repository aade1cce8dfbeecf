// Command perfbench is hiREP's benchmark. It runs one named workload against
// an in-process loopback fleet (node.StartFleet) or the simulator facade
// (hirep.NewTestbed / NewVotingTestbed), checks the outputs, and prints one
// JSON result as the last line of standard output.
//
//	bash perfbench/run.sh --workload trust-read --seed 1 --seconds 20 --trace 0
//
// run.sh builds this module from the checkout it is run from; see README.md.
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics, gathered from outside the program: spans
// around the benchmark's calls into each module, deltas of the counters the
// modules export, a counting net.Conn installed through Options.Dialer, and
// replays of the workload's own outputs through lower layers. Spans are
// written to .bench_build/trace/. See BENCHMARK.json for the metric list.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload receives.
type env struct {
	name    string
	seed    int64
	dur     time.Duration
	trace   bool
	dir     string // scratch directory for durable stores, removed at exit
	tr      *tracer
	sampler *sampler
}

// outcome is what a workload hands back. e2e always holds the untraced
// end-to-end metrics (measured with tracing off even in a traced run);
// layer is filled only in a traced run. report lists the workload's own
// metrics under the names of its op types, for the human-readable table.
type outcome struct {
	mu        sync.Mutex
	e2e       map[string]metric
	layer     map[string]metric
	report    []namedMetric
	attempted int64
	failed    int64
	checkErrs []string
}

type namedMetric struct {
	name string
	metric
}

func (o *outcome) note(name string, v float64, unit string) {
	o.report = append(o.report, namedMetric{name, metric{v, unit}})
}

// noteOps records one op type's attempted and failed counts.
func (o *outcome) noteOps(name string, r *recorder) {
	a, f := r.counts()
	o.note(name+"_attempted", float64(a), "count")
	o.note(name+"_failed", float64(f), "count")
}

// checkf records a failed output check after the run: it counts as one
// more failed op.
func (o *outcome) checkf(format string, args ...any) {
	o.failf(format, args...)
	o.mu.Lock()
	o.attempted++
	o.failed++
	o.mu.Unlock()
}

// failf records why an op failed; the op's recorder already counts it.
func (o *outcome) failf(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.checkErrs) < 20 {
		o.checkErrs = append(o.checkErrs, fmt.Sprintf(format, args...))
	}
}

// count folds a recorder's attempted and failed ops into the outcome.
func (o *outcome) count(recs ...*recorder) {
	for _, r := range recs {
		a, f := r.counts()
		o.mu.Lock()
		o.attempted += a
		o.failed += f
		o.mu.Unlock()
	}
}

type workload struct {
	run func(*env) (*outcome, error)
	// rates are the fixed offered rates, for the run header.
	rates string
}

var workloads = map[string]workload{
	"trust-read": {runTrustRead, fmt.Sprintf("open loop %d evaluations/s, then closed loop %d per peer", readRate, readWindow)},
	"mixed":      {runMixed, fmt.Sprintf("open loop %d transactions/s (a quorum read, then one report to each agent; a proof read every %dth), audit sweep every %v, then closed loop %d transactions per peer", mixedRate, mixedProofEvery, mixedAuditEvery, mixedWindow)},
	"paper-sim":  {runPaperSim, fmt.Sprintf("single-threaded blocks of %d hiREP transactions and %d voting polls from %d requestors, timed on CPU clocks", simBlockHirep, simBlockVoting, simRequestors)},
}

func main() {
	correct, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

// run executes one workload and prints its result. It reports whether
// every output check passed; an error means no result was printed.
func run() (bool, error) {
	name := flag.String("workload", "", "workload: trust-read, mixed or paper-sim")
	seed := flag.Int64("seed", 1, "seed for keys and subject draws (not the workload's shape)")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		return false, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return false, fmt.Errorf("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return false, fmt.Errorf("--trace must be 0 or 1")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("stores-%d", os.Getpid())))
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)

	e := &env{name: *name, seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1, dir: dir}
	if e.trace {
		e.tr = newTracer()
	}
	printHeader(e, w)
	e.sampler = startSampler()
	out, err := w.run(e)
	e.sampler.stop()
	if err != nil {
		return false, err
	}
	if e.trace {
		path := tracePath(e.name, e.seed)
		if err := e.tr.write(path); err != nil {
			return false, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(e.tr.snapshot()), path)
	}

	res := result{Correct: len(out.checkErrs) == 0, Attempted: out.attempted, Failed: out.failed}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	if out.failed > 0 {
		res.Correct = false
	}
	var problems []string
	if e.trace {
		res.Metrics, problems = conform(perLayer, out.layer, true)
	} else {
		out.e2e["rss_peak_mb"] = metric{rssPeakMB(), "MB"}
		res.Metrics, problems = conform(endToEnd, out.e2e, false)
	}
	if len(problems) > 0 {
		return false, fmt.Errorf("metrics do not match the declared set: %s", strings.Join(problems, ", "))
	}
	for k, m := range res.Metrics {
		// A failed op is an infinite latency; JSON has no infinity, and a
		// run with failures is already marked incorrect.
		if math.IsInf(m.Value, 1) || math.IsNaN(m.Value) {
			res.Metrics[k] = metric{math.MaxFloat64, m.Unit}
			res.Correct = false
		}
	}
	printTable(out, res.Metrics)
	for _, c := range out.checkErrs {
		fmt.Println("CHECK FAILED:", c)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

// printHeader records what a reader needs to compare two runs.
func printHeader(e *env, w workload) {
	fmt.Printf("perfbench workload=%s seed=%d seconds=%v trace=%v\n", e.name, e.seed, e.dur.Seconds(), e.trace)
	fmt.Printf("  nproc=%d GOMAXPROCS=%d go=%s %s/%s network=loopback store_fs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, fsType(e.dir))
	fmt.Printf("  offered: %s\n", w.rates)
}

func printTable(o *outcome, m map[string]metric) {
	for _, r := range o.report {
		fmt.Printf("  %-28s %14.4f %s\n", r.name, r.Value, r.Unit)
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Println("result metrics:")
	for _, k := range names {
		fmt.Printf("  %-28s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// fsType names the filesystem holding dir, as statfs reports it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	known := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := known[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// rssPeakMB is the process's peak resident set, from getrusage.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// CPU-time clocks (clock_gettime): the whole process's, or the calling OS
// thread's — pin the goroutine with runtime.LockOSThread first.
const (
	clockProcess = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThread  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuClock reads a CPU-time clock; 0 if the kernel refuses.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// procSnap is the process-wide state a phase is measured against.
type procSnap struct {
	cpu                   time.Duration
	mallocs, bytes, numGC uint64
	pauseNs               uint64
}

func takeProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{cpu: cpuClock(clockProcess), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, numGC: uint64(ms.NumGC), pauseNs: ms.PauseTotalNs}
}

// processMetrics reports the process layer between two snapshots.
func processMetrics(a, b procSnap, ops int64, s *sampler, m map[string]metric) {
	m["process.cpu_ms_per_op"] = metric{ms(b.cpu-a.cpu) / math.Max(1, float64(ops)), "ms"}
	m["process.allocs_per_op"] = metric{perOp(int64(b.mallocs-a.mallocs), ops), "count"}
	m["process.alloc_bytes_per_op"] = metric{perOp(int64(b.bytes-a.bytes), ops), "B"}
	m["process.gc_cycles"] = metric{float64(b.numGC - a.numGC), "count"}
	m["process.gc_pause_ms"] = metric{float64(b.pauseNs-a.pauseNs) / 1e6, "ms"}
	m["process.goroutines_max"] = metric{float64(s.goroutinesMax()), "count"}
}

// sampler polls process-wide gauges that have no counter: goroutine count
// and, when a workload registers it, the outbox depth across its peers.
type sampler struct {
	mu       sync.Mutex
	gorMax   int
	depth    func() int
	depthMax int
	done     chan struct{}
	wg       sync.WaitGroup
}

func startSampler() *sampler {
	s := &sampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.done:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *sampler) sample() {
	g := runtime.NumGoroutine()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gorMax = max(s.gorMax, g)
	if s.depth != nil {
		s.depthMax = max(s.depthMax, s.depth())
	}
}

// watch registers the outbox-depth gauge and resets both maxima, so they
// cover only the measured phase.
func (s *sampler) watch(depth func() int) {
	s.mu.Lock()
	s.depth, s.depthMax, s.gorMax = depth, 0, 0
	s.mu.Unlock()
}

func (s *sampler) goroutinesMax() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gorMax
}

func (s *sampler) outboxMax() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.depthMax
}

func (s *sampler) stop() {
	close(s.done)
	s.wg.Wait()
}
