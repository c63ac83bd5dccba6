// Command qecbench is the repository's end-to-end benchmark. It starts a real
// qec-serve child, drives it over loopback from one seeded generator
// process, checks the answers against an in-process engine built from the
// same corpus, and prints every metric by name and unit. With --trace 1 it
// instead runs the workload once more and replays the same request stream
// in-process, timing the calls into each layer's public functions.
//
// Run it from the repository root through run.sh, which builds qec-serve and
// this command from the checkout first:
//
//	bash qecbench/run.sh --workload cold-serial --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is the result: correct, attempted,
// failed and metrics. The line before it is a summary with the counts, the
// guard shares and the host's conditions. --workload all runs every workload
// in turn and prints the two lines for each. The exit code is non-zero when
// an output check, a workload self-check or the replay check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// workload is one traffic mix.
type workload struct {
	name string
	// limit is the latency within which an answer counts toward goodput.
	limit time.Duration
	// snapshot makes qec-serve load an index snapshot the benchmark writes,
	// so set-up times the read path instead of the build path.
	snapshot bool
	// hot marks workloads that send the warmed hot expansions.
	hot bool
	// setups is how many times set-up is timed; the median is reported.
	setups int
	// warmLoop stream requests run before the window, untimed.
	warmLoop int
	// The workload's self-check bounds on the window's cache hit ratio;
	// maxHitRatio < 0 means unbounded.
	minHitRatio, maxHitRatio float64
}

var workloads = []workload{
	{name: "cold-serial", limit: 25 * time.Millisecond, setups: 3, warmLoop: 200,
		minHitRatio: 0, maxHitRatio: 0.02},
	{name: "hot-serial", limit: 5 * time.Millisecond, snapshot: true, hot: true, setups: 7, warmLoop: 1000,
		minHitRatio: 0.99, maxHitRatio: -1},
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name     = flag.String("workload", "", "workload: cold-serial, hot-serial, or all of them in turn")
		seed     = flag.Int64("seed", 1, "seed of the generated requests")
		seconds  = flag.Int("seconds", 25, "length of the timed window")
		trace    = flag.Int("trace", 0, "1 replays the stream in-process and reports per-layer metrics")
		serveBin = flag.String("serve", "", "qec-serve binary")
		workdir  = flag.String("workdir", ".bench_build", "directory for the run's snapshot, server logs and spans")
	)
	flag.Parse()
	var wls []*workload
	if *name == "all" {
		for i := range workloads {
			wls = append(wls, &workloads[i])
		}
	} else if wl, ok := workloadByName(*name); ok {
		wls = append(wls, wl)
	}
	if len(wls) == 0 || *seconds < 1 || *serveBin == "" || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "qecbench: want --workload cold-serial|hot-serial|all --seed N --seconds N --trace 0|1 --serve BIN")
		return 2
	}
	code := 0
	for _, wl := range wls {
		b := &bench{
			wl: wl, seed: *seed, dur: time.Duration(*seconds) * time.Second,
			serveBin: *serveBin, workdir: *workdir,
			info: map[string]any{}, nproc: runtime.NumCPU(),
		}
		code = max(code, b.run(*trace == 1))
	}
	return code
}

// run measures the workload once and prints the summary and result lines.
// It returns the exit code.
func (b *bench) run(traced bool) int {
	dir, err := os.MkdirTemp(b.workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "qecbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	b.dir = dir

	var res *result
	if traced {
		res, err = b.traced()
	} else {
		res, err = b.endToEnd()
	}
	b.info["workload"], b.info["seed"], b.info["traced"] = b.wl.name, b.seed, traced
	b.info["host"] = map[string]any{
		"nproc":             b.nproc,
		"gomaxprocs_client": b.clientProcs,
		"gomaxprocs_server": serverProcs(b.nproc),
		"loadavg_1m":        loadAvg1(),
		"go_version":        runtime.Version(),
		"steal_share":       b.steal,
	}
	if err != nil {
		b.info["error"] = err.Error()
	}
	line, _ := json.Marshal(map[string]any{"summary": b.info})
	fmt.Println(string(line))
	if res == nil {
		fmt.Fprintln(os.Stderr, "qecbench:", err)
		return 1
	}
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	if err != nil || !res.Correct {
		fmt.Fprintln(os.Stderr, "qecbench:", err)
		return 1
	}
	return 0
}

// serverProcs is qec-serve's GOMAXPROCS: the inherited environment's
// setting, else the Go default of one per CPU.
func serverProcs(nproc int) int {
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		return n
	}
	return nproc
}

// bench is one run of one workload.
type bench struct {
	wl       *workload
	seed     int64
	dur      time.Duration
	serveBin string
	dir      string // the run's own directory, removed at exit
	workdir  string
	nproc    int

	ref      *reference
	model    topicModel
	snapPath string
	snap     []byte

	steal       float64
	clientProcs int
	info        map[string]any
}

// prepare builds the reference engine and the topic model, and writes the
// snapshot a snapshot-loading workload serves.
func (b *bench) prepare() error {
	b.ref = buildReference(corpusScale)
	b.model = newTopicModel(b.ref.ds)
	if !b.wl.snapshot {
		return nil
	}
	var err error
	if b.snap, err = b.ref.snapshot(); err != nil {
		return err
	}
	b.snapPath = filepath.Join(b.dir, "wikipedia.idx")
	if err := os.WriteFile(b.snapPath, b.snap, 0o644); err != nil {
		return fmt.Errorf("write snapshot: %w", err)
	}
	return nil
}

// serverArgs are qec-serve's flags for the workload: shipped defaults apart
// from the corpus source.
func (b *bench) serverArgs() []string {
	if b.wl.snapshot {
		return []string{"-index", b.snapPath}
	}
	return []string{"-dataset", "wikipedia", "-scale", strconv.Itoa(corpusScale)}
}

// start launches qec-serve n times and keeps the last one running. It
// returns the median set-up time and every set-up time.
func (b *bench) start(n int) (*serverProc, float64, []float64, error) {
	var times []float64
	var srv *serverProc
	for i := 0; i < n; i++ {
		if srv != nil {
			srv.stop()
		}
		var took time.Duration
		var err error
		srv, took, err = startServer(b.serveBin, b.serverArgs(), filepath.Join(b.dir, fmt.Sprintf("serve-%d.log", i)))
		if err != nil {
			return nil, 0, nil, err
		}
		times = append(times, took.Seconds())
	}
	return srv, median(times), times, nil
}

// drive warms the server and runs the timed window.
func (b *bench) drive(srv *serverProc, s *stream) (*window, error) {
	hc := newConn(srv.addr, nil)
	defer hc.close()
	for _, r := range s.warm() {
		if status, _, _, err := hc.do("POST", r.ep.path(), r.body); err != nil || status != 200 {
			return nil, fmt.Errorf("warm %s: status %d, %v", r.body, status, err)
		}
	}
	for i := 0; i < b.wl.warmLoop; i++ {
		r := s.next()
		if r == nil {
			return nil, errColdExhausted
		}
		if status, _, _, err := hc.do("POST", r.ep.path(), r.body); err != nil || status != 200 {
			return nil, fmt.Errorf("warm %s: status %d, %v", r.body, status, err)
		}
	}
	before, err := fetchStats(srv.addr)
	if err != nil {
		return nil, err
	}
	// The generator runs on one P: a closed loop on one connection needs no
	// more CPU than that, and leaves the rest to the server.
	const procs = 1
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	b.clientProcs = procs
	runtime.GC()

	w := &window{dur: b.dur}
	t0 := time.Now()
	sp := startSampler(srv.pid(), t0, b.dur, buckets)
	w.recs, err = closedLoop(hc, s, t0, b.dur)
	samples, serr := sp.wait()
	if err != nil {
		return nil, err
	}
	if serr != nil {
		return nil, serr
	}
	w.samples = samples
	if w.after, err = fetchStats(srv.addr); err != nil {
		return nil, err
	}
	w.before = before
	if w.rssMiB, err = peakRSS(srv.pid()); err != nil {
		return nil, err
	}
	return w, nil
}

// endToEnd is the untraced run: set-up, window, output check, self-checks.
func (b *bench) endToEnd() (*result, error) {
	if err := b.prepare(); err != nil {
		return nil, err
	}
	s := newStream(b.model, b.wl, b.seed)
	srv, setup, setups, err := b.start(b.wl.setups)
	if err != nil {
		return nil, err
	}
	b.info["setup_runs_s"] = setups
	w, err := b.drive(srv, s)
	srv.stop()
	if err != nil {
		return nil, err
	}
	sum, err := summarize(w, b.wl.limit)
	if err != nil {
		return nil, err
	}
	b.steal = sum.steal
	d := deltaOf(w.before, w.after)
	b.describe(sum, d)
	sum.values["setup_s"] = setup
	metrics, err := fill(endToEnd, sum.values)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Attempted: sum.attempted, Failed: sum.failed, Metrics: metrics}
	checked, cerr := checkAnswers(b.ref.eng, w.recs)
	b.info["checked_answers"] = checked
	if cerr == nil && checked == 0 {
		cerr = errors.New("output check: no answer was sampled")
	}
	if cerr == nil {
		cerr = selfCheck(b.wl, d, sum)
	}
	if cerr != nil {
		res.Correct = false
		return res, cerr
	}
	return res, nil
}

// describe records the window's counts and guards in the summary line.
func (b *bench) describe(sum *summary, d statsDelta) {
	b.info["attempted"], b.info["succeeded"], b.info["failed"] = sum.attempted, sum.succeeded, sum.failed
	b.info["degraded_share"] = sum.degradedShare()
	b.info["error_share"] = sum.errorShare()
	b.info["goodput_limit_ms"] = ms(b.wl.limit)
	b.info["cache_hit_ratio"] = d.hitRatio()
	b.info["degrade_transitions"] = d.transitions
	b.info["bucket_steal_share"] = sum.bucketSteal
	if sum.firstFailure != "" {
		b.info["first_failure"] = sum.firstFailure
	}
}
