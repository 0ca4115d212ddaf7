// Command perfbench is the repository's benchmark: it runs one named
// workload on the simulator for a fixed wall-clock budget, checks every
// episode's simulated output, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics of a traced run) as the last
// line of standard output, one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// Usage (from the repository root):
//
//	python3 perfbench/run.py --workload fig2_rcpstar --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads, the metrics and
// the layer each one measures.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/obs"
)

// workload is one named benchmark workload.
type workload struct {
	name  string
	build func(seed int64, tr *tracer) (*env, error)
	probe func() probeInput
	// independent, when set, re-runs an episode by an independent
	// path and returns the digest its outcome must match.
	independent func(seed int64) uint64
}

var workloads = []workload{
	{name: "fig2_rcpstar", build: buildFig2, probe: fig2Probe, independent: fig2ReplayDigest},
	{name: "leafspine_int", build: buildLeafSpineINT, probe: intProbe},
	{name: "leafspine_writes", build: buildLeafSpineWrites, probe: writesProbe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

var processStart = time.Now()

// monoNow is monotonic wall time in ns since the process started.
func monoNow() int64 { return int64(time.Since(processStart)) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fig2_rcpstar, leafspine_int or leafspine_writes")
	seed := fs.Int64("seed", 1, "workload seed; every episode seed derives from it")
	seconds := fs.Float64("seconds", 10, "wall-clock seconds to measure")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	m := stampMachine()
	stamp, _ := json.Marshal(struct {
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Seconds  float64 `json:"seconds"`
		Trace    int     `json:"trace"`
		machine
	}{w.name, *seed, *seconds, *trace, m})
	fmt.Printf("# run %s\n", stamp)

	var res result
	var err error
	if *trace == 1 {
		res, err = tracedRun(w, *seed, *seconds, *out)
	} else {
		res = untracedRun(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("# %-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Printf("# fail_ratio %d/%d\n", res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// episode is one measured episode's outcome.
type episode struct {
	seed      int64
	setupS    float64
	measuredS float64
	simS      float64
	hops      uint64
	mallocs   uint64
	bytes     uint64
	gcCycles  uint32
	gcPauseNs uint64
	liveHeap  float64 // MB
	pending   []float64
	slices    []float64 // wall ms per measured slice
	counts    counts    // simulated statistics over the episode
	failures  []string
	env       *env // kept only by the traced run, for per-layer reads
}

var (
	runLabels  = pprof.WithLabels(context.Background(), pprof.Labels("phase", "run"))
	idleLabels = pprof.WithLabels(context.Background(), pprof.Labels("phase", "other"))
)

// runEpisode builds one fresh network from seed, steps its measured
// part in fixed simulated slices, recording each slice's wall time in
// ms, then drains the network and checks its output.
func runEpisode(w workload, seed int64, tr *tracer) episode {
	ep := episode{seed: seed}
	// The live heap is measured against the heap left before the
	// build, so it is the episode's own state, not the benchmark's.
	var base runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	t0 := monoNow()
	e, err := w.build(seed, tr)
	if err != nil {
		ep.failures = []string{fmt.Sprintf("set-up: %v", err)}
		return ep
	}
	ep.setupS = float64(monoNow()-t0) / 1e9
	start := e.counts() // set-up leaves the clock at measuredFrom
	ep.slices = make([]float64, 0, int((e.measuredTo-e.measuredFrom)/e.slice)+1)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if tr != nil {
		pprof.SetGoroutineLabels(runLabels)
	}
	m0 := monoNow()
	for t := e.measuredFrom; t < e.measuredTo; {
		t = min(t+e.slice, e.measuredTo)
		s0 := monoNow()
		if tr != nil {
			tok := tr.enter()
			e.sim.RunUntil(t)
			tr.exit(bSlice, tok)
			ep.pending = append(ep.pending, float64(e.sim.Pending()))
		} else {
			e.sim.RunUntil(t)
		}
		ep.slices = append(ep.slices, float64(monoNow()-s0)/1e6)
	}
	ep.measuredS = float64(monoNow()-m0) / 1e9
	if tr != nil {
		pprof.SetGoroutineLabels(idleLabels)
	}
	runtime.ReadMemStats(&after)
	ep.simS = (e.measuredTo - e.measuredFrom).Seconds()
	ep.hops = e.counts().Hops - start.Hops
	ep.mallocs = after.Mallocs - before.Mallocs
	ep.bytes = after.TotalAlloc - before.TotalAlloc
	ep.gcCycles = after.NumGC - before.NumGC
	ep.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	ep.liveHeap = (float64(live.HeapAlloc) - float64(base.HeapAlloc)) / (1 << 20)

	e.sim.RunUntil(e.quiet)
	ep.failures = e.check()
	ep.counts = e.counts().sub(start)
	ep.failures = append(ep.failures, e.reconcile(ep.counts, e.ttlBlackholes())...)
	if tr != nil {
		ep.env = e
	}
	return ep
}

// untracedRun measures the end-to-end metrics: episodes back to back
// until the wall-clock budget is spent, then a replay of the first
// episode that must reproduce its simulated statistics exactly.
func untracedRun(w workload, seed int64, seconds float64) result {
	var eps []episode
	var cal calibrator
	slices := newSliceStats()
	deadline := monoNow() + int64(seconds*1e9)
	for i := 0; i == 0 || monoNow() < deadline; i++ {
		t0 := monoNow()
		ep := runEpisode(w, splitmix(seed, i), nil)
		cal.after(monoNow() - t0)
		for _, v := range ep.slices {
			slices.add(v)
		}
		ep.slices = nil
		eps = append(eps, ep)
	}
	p50, p99 := slices.result()
	first := &eps[0]
	if w.independent != nil && w.independent(first.seed) != first.counts.Digest {
		first.failures = append(first.failures, "independent replay gives a different outcome")
	}
	if got := runEpisode(w, first.seed, nil).counts; !reflect.DeepEqual(got, first.counts) {
		first.failures = append(first.failures, fmt.Sprintf("replay of seed %d differs: %+v vs %+v", first.seed, got, first.counts))
	}
	res := tally(eps)

	// Rates are medians over episodes, so a burst of interference from
	// outside the process moves them less than it moves a mean.
	var simS, wallS, hops, mallocs, bytes float64
	var speeds, hopRates, setups, heaps []float64
	for _, ep := range eps {
		simS += ep.simS
		wallS += ep.measuredS
		hops += float64(ep.hops)
		mallocs += float64(ep.mallocs)
		bytes += float64(ep.bytes)
		speeds = append(speeds, ratio(ep.simS, ep.measuredS))
		hopRates = append(hopRates, ratio(float64(ep.hops), ep.measuredS))
		setups = append(setups, ep.setupS)
		heaps = append(heaps, ep.liveHeap)
	}
	slow := cal.slowness()
	fmt.Printf("# episodes %d, slices %d, measured %.3f s wall for %.3f s simulated\n",
		len(eps), slices.n, wallS, simS)
	fmt.Printf("# calibration: %d chunks, median %.4f ms, slowness %.4f; raw sim_speed %.6g, hops_per_s %.6g, slice_ms_p50 %.6g, slice_ms_p99 %.6g, setup_s %.6g\n",
		len(cal.chunkMs), median(cal.chunkMs), slow, median(speeds), median(hopRates), p50, p99, median(setups))
	// Wall times are in reference-host units (see calib.go).
	res.Metrics = map[string]metric{
		"sim_speed":      {median(speeds) * slow, "sim_s/s"},
		"hops_per_s":     {median(hopRates) * slow, "1/s"},
		"slice_ms_p50":   {p50 / slow, "ms"},
		"slice_ms_p99":   {p99 / slow, "ms"},
		"allocs_per_hop": {ratio(mallocs, hops), "allocs"},
		"bytes_per_hop":  {ratio(bytes, hops), "B"},
		"live_heap_mb":   {median(heaps), "MB"},
		"setup_s":        {median(setups) / slow, "s"},
	}
	return res
}

// sliceBlock is how many consecutive slices share one percentile
// estimate: each block's p99 has 10 slices beyond it.
const sliceBlock = 1024

// sliceStats takes slice-time percentiles per block of sliceBlock
// consecutive slices and reports the median over blocks, so a burst of
// interference from outside the process, which spoils a few blocks,
// moves them little.  Its memory stays fixed over the run.
type sliceStats struct {
	block      []float64
	p50s, p99s []float64
	n          int
}

func newSliceStats() *sliceStats {
	return &sliceStats{block: make([]float64, 0, sliceBlock)}
}

func (s *sliceStats) add(v float64) {
	s.n++
	s.block = append(s.block, v)
	if len(s.block) == sliceBlock {
		s.flush()
	}
}

func (s *sliceStats) flush() {
	s.p50s = append(s.p50s, quantile(s.block, 0.50))
	s.p99s = append(s.p99s, quantile(s.block, 0.99))
	s.block = s.block[:0]
}

// result returns the median block p50 and p99.  A partial last block
// counts only when the run filled no block.
func (s *sliceStats) result() (p50, p99 float64) {
	if len(s.p50s) == 0 && len(s.block) > 0 {
		s.flush()
	}
	return median(s.p50s), median(s.p99s)
}

// tally counts attempted and failed episodes and prints each failure.
func tally(eps []episode) result {
	res := result{Attempted: len(eps)}
	for _, ep := range eps {
		if len(ep.failures) > 0 {
			res.Failed++
			for _, f := range ep.failures {
				fmt.Printf("# FAIL seed %d: %s\n", ep.seed, f)
			}
		}
	}
	res.Correct = res.Failed == 0
	return res
}

// tracedRun measures the per-layer metrics.  It runs episodes untraced
// for a third of the budget, then the same episode seeds again with
// every span, shim and registry on and a CPU profile running; each
// traced episode must reproduce its untraced twin's simulated
// statistics, and the ratio of their wall times is the tracing
// overhead.
func tracedRun(w workload, seed int64, seconds float64, outDir string) (result, error) {
	var plain []episode
	deadline := monoNow() + int64(seconds/3*1e9)
	for i := 0; i == 0 || monoNow() < deadline; i++ {
		plain = append(plain, runEpisode(w, splitmix(seed, i), nil))
	}

	tr := newTracer(seed)
	var prof bytes.Buffer
	pprof.SetGoroutineLabels(idleLabels)
	// Sample at profileHz instead of pprof's 100 Hz, so a few seconds
	// of traced slices give thousands of samples.  (StartCPUProfile
	// notes on stderr that the rate was already set.)
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	var traced []episode
	agg := newLayerAgg()
	for _, p := range plain {
		ep := runEpisode(w, p.seed, tr)
		if !reflect.DeepEqual(ep.counts, p.counts) {
			ep.failures = append(ep.failures, fmt.Sprintf("traced run of seed %d simulated differently: %+v vs %+v", p.seed, ep.counts, p.counts))
		}
		agg.add(ep)
		ep.env = nil
		traced = append(traced, ep)
	}
	pprof.StopCPUProfile()
	pprof.SetGoroutineLabels(context.Background())
	shares, err := attributeProfile(prof.Bytes())
	if err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	if err := tr.writeSpans(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: span file: %v\n", err)
	}

	var plainWall, tracedWall float64
	for i := range traced {
		plainWall += plain[i].measuredS
		tracedWall += traced[i].measuredS
	}
	res := tally(append(plain, traced...))
	pr := runProbes(w.probe(), int(median(agg.pending)))
	fmt.Printf("# traced episodes %d, %d profile samples in measured slices\n", len(traced), shares.samples)
	res.Metrics = agg.metrics(tr, shares, pr, ratio(tracedWall, plainWall))
	return res, nil
}

const profileHz = 1000

// layerAgg accumulates the traced episodes' per-layer readings.
type layerAgg struct {
	c                            counts
	pending                      []float64
	runS                         float64
	gcCycles, gcPauseNs          uint64
	queueDepth, cycles           *obs.Histogram
	applyMs                      []float64
	mutations, rounds, cstoreTry uint64
	nicDrops                     uint64
}

func newLayerAgg() *layerAgg {
	return &layerAgg{queueDepth: obs.NewHistogram(), cycles: obs.NewHistogram()}
}

func (a *layerAgg) add(ep episode) {
	e := ep.env
	if e == nil {
		return
	}
	c := ep.counts
	a.c.Hops += c.Hops
	a.c.Execs += c.Execs
	a.c.CStores += c.CStores
	a.c.Throttled += c.Throttled
	a.c.Denied += c.Denied
	a.c.LinkTx += c.LinkTx
	a.c.LinkLost += c.LinkLost + c.LinkDown
	a.c.QueueDrops += c.QueueDrops
	a.c.RebootDrops += c.RebootDrops
	a.c.ProbesSent += c.ProbesSent
	a.c.ProbesMatched += c.ProbesMatched
	a.c.ProbeRetx += c.ProbeRetx
	a.c.Fires += c.Fires
	a.c.Reverts += c.Reverts
	a.c.Heartbeats += c.Heartbeats
	a.c.TCAMEntries = max(a.c.TCAMEntries, c.TCAMEntries)
	a.nicDrops += c.NICDrops
	a.pending = append(a.pending, ep.pending...)
	a.runS += ep.measuredS
	a.gcCycles += uint64(ep.gcCycles)
	a.gcPauseNs += ep.gcPauseNs
	if e.applyMs > 0 {
		a.applyMs = append(a.applyMs, e.applyMs)
	}
	a.mutations += e.mutations
	a.rounds += e.convergeRounds
	a.cstoreTry += e.cstoreAttempts
	for _, sw := range e.switches {
		mergeHist(a.cycles, e.reg.Histogram(fmt.Sprintf("switch/%d/tcpu_cycles", sw.ID())))
		for p := 0; p < sw.Ports(); p++ {
			mergeHist(a.queueDepth, e.reg.Histogram(fmt.Sprintf("switch/%d/port/%d/queue_depth_bytes", sw.ID(), p)))
		}
	}
}

func mergeHist(dst, src *obs.Histogram) {
	for i := 0; i < obs.NumBuckets; i++ {
		if n := src.Bucket(i); n > 0 {
			dst.ObserveBucket(i, n)
		}
	}
}

// metrics assembles the per-layer metrics.
func (a *layerAgg) metrics(tr *tracer, sh profileShares, pr probeResult, overhead float64) map[string]metric {
	n := func(v uint64) float64 { return float64(v) }
	sendNs := tr.p50(bSend)
	if tr.count[bSend] == 0 {
		sendNs = pr.sendNs // the workload's senders belong to the app
	}
	return map[string]metric{
		"netsim.run_s":              {a.runS, "s"},
		"netsim.pending_p50":        {median(a.pending), "events"},
		"netsim.pending_max":        {quantile(a.pending, 1), "events"},
		"netsim.link_tx":            {n(a.c.LinkTx), "frames"},
		"netsim.link_lost":          {n(a.c.LinkLost), "frames"},
		"netsim.event_ns":           {pr.eventNs, "ns"},
		"netsim.cpu_share":          {sh.share("netsim"), "ratio"},
		"asic.hops":                 {n(a.c.Hops), "hops"},
		"asic.ingress_ns_p50":       {tr.p50(bSwitchRx), "ns"},
		"asic.hop_ns":               {pr.hopNs, "ns"},
		"asic.tcam_entries":         {n(a.c.TCAMEntries), "entries"},
		"asic.queue_drops":          {n(a.c.QueueDrops), "frames"},
		"asic.queue_depth_p99":      {float64(a.queueDepth.Quantile(0.99)), "B"},
		"asic.cpu_share":            {sh.share("asic"), "ratio"},
		"asic.lookup_cpu_share":     {ratio(float64(sh.lookup), float64(sh.samples)), "ratio"},
		"asic.reboot_drops":         {n(a.c.RebootDrops), "frames"},
		"tcpu.execs":                {n(a.c.Execs), "execs"},
		"tcpu.exec_ratio":           {ratio(n(a.c.Execs), n(a.c.Hops)), "ratio"},
		"tcpu.exec_ns":              {pr.execNs, "ns"},
		"tcpu.cycles_mean":          {a.cycles.Mean(), "cycles"},
		"tcpu.cstore_commits":       {n(a.c.CStores), "commits"},
		"tcpu.cstore_ratio":         {ratio(n(a.c.CStores), n(a.cstoreTry)), "ratio"},
		"tcpu.throttled":            {n(a.c.Throttled), "tpps"},
		"tcpu.denied":               {n(a.c.Denied), "accesses"},
		"tcpu.cpu_share":            {sh.share("tcpu"), "ratio"},
		"core.clone_ns":             {pr.cloneNs, "ns"},
		"core.parse_ns":             {pr.parseNs, "ns"},
		"core.cpu_share":            {sh.share("core"), "ratio"},
		"endhost.send_ns_p50":       {sendNs, "ns"},
		"endhost.recv_ns_p50":       {tr.p50(bHostRx), "ns"},
		"endhost.nic_drops":         {n(a.nicDrops), "frames"},
		"endhost.probes_sent":       {n(a.c.ProbesSent), "probes"},
		"endhost.probe_match_ratio": {ratio(n(a.c.ProbesMatched), n(a.c.ProbesSent)), "ratio"},
		"endhost.probe_retx":        {n(a.c.ProbeRetx), "probes"},
		"endhost.cpu_share":         {sh.share("endhost"), "ratio"},
		"app.handler_ns_p50":        {tr.p50(bHandler), "ns"},
		"app.cpu_share":             {sh.share("app"), "ratio"},
		"fabric.apply_ms":           {median(a.applyMs), "ms"},
		"fabric.mutations":          {n(a.mutations), "ops"},
		"fabric.converge_rounds":    {n(a.rounds), "rounds"},
		"reflex.fires":              {n(a.c.Fires), "fires"},
		"reflex.reverts":            {n(a.c.Reverts), "reverts"},
		"reflex.heartbeats":         {n(a.c.Heartbeats), "frames"},
		"control.cpu_share":         {sh.share("control"), "ratio"},
		"runtime.gc_cycles":         {n(a.gcCycles), "cycles"},
		"runtime.gc_pause_ms":       {float64(a.gcPauseNs) / 1e6, "ms"},
		"runtime.cpu_share":         {sh.share("runtime"), "ratio"},
		"trace.overhead":            {overhead, "ratio"},
	}
}
