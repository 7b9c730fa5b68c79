package main

import (
	"compress/gzip"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// counters is a process-wide reading taken at a block boundary.
type counters struct {
	at       time.Time
	cpu      time.Duration // user+sys
	alloc    uint64        // runtime.MemStats.TotalAlloc
	mallocs  uint64
	numGC    uint32
	gcCPU    float64 // runtime/metrics cpu-seconds spent in GC
	totalCPU float64 // runtime/metrics cpu-seconds available to Go
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	return counters{
		at:       time.Now(),
		cpu:      processCPU(),
		alloc:    ms.TotalAlloc,
		mallocs:  ms.Mallocs,
		numGC:    ms.NumGC,
		gcCPU:    cpuSamples[0].Value.Float64(),
		totalCPU: cpuSamples[1].Value.Float64(),
	}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentMB is the process's current resident set size, or 0 where
// /proc/self/statm cannot be read.
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20)
}

// rssEvery is the resident-set sampling period during the window.
const rssEvery = 50 * time.Millisecond

// block is one slice of the timed window. The run reports the median
// over blocks of each end-to-end metric, so one slice disturbed by a
// neighbour on the host moves no reported number.
type block struct {
	traced   bool
	mu       sync.Mutex
	lat      []float64 // ms; failed ops are +Inf
	ok, fail int
	rssMax   float64 // highest sampled resident set, MiB
	from, to counters
}

func (b *block) observe(d time.Duration, err error) {
	ms := float64(d.Nanoseconds()) / 1e6
	b.mu.Lock()
	if err != nil {
		b.fail++
		ms = math.Inf(1)
	} else {
		b.ok++
	}
	b.lat = append(b.lat, ms)
	b.mu.Unlock()
}

func (b *block) noteRSS(mb float64) {
	b.mu.Lock()
	b.rssMax = max(b.rssMax, mb)
	b.mu.Unlock()
}

func (b *block) wall() time.Duration { return b.to.at.Sub(b.from.at) }

func (b *block) ops() int { return b.ok + b.fail }

// meter owns the timed window's blocks.
type meter struct {
	blocks   []*block
	cur      atomic.Int64 // the block being measured; len(blocks) once done
	errMu    sync.Mutex
	firstErr error
}

// newMeter splits the window into n blocks; with trace set, odd blocks
// are traced and even ones are not, so the traced run measures its own
// overhead against interleaved untraced blocks.
func newMeter(n int, trace bool) *meter {
	m := &meter{blocks: make([]*block, n)}
	for i := range m.blocks {
		m.blocks[i] = &block{traced: trace && i%2 == 1}
	}
	return m
}

// sampleRSS samples the resident set into the current block every
// rssEvery until the returned stop function is called; stop returns once
// the sampler has exited.
func (m *meter) sampleRSS() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if i := m.cur.Load(); i < int64(len(m.blocks)) {
				m.blocks[i].noteRSS(residentMB())
			}
			select {
			case <-quit:
				return
			case <-t.C:
			}
		}
	}()
	return func() { close(quit); <-done }
}

// fail keeps the first verification failure for the report.
func (m *meter) fail(err error) {
	m.errMu.Lock()
	if m.firstErr == nil {
		m.firstErr = err
	}
	m.errMu.Unlock()
}

func (m *meter) totals() (attempted, failed int) {
	for _, b := range m.blocks {
		attempted += b.ops()
		failed += b.fail
	}
	return attempted, failed
}

// closedLoop runs clients that each send their next op only after the
// previous one is verified, for len(m.blocks) blocks of blockDur. The
// calling goroutine marks the block boundaries and flips tracing on for
// traced blocks. Each op's request is drawn from s before its clock
// starts, so the generator is outside the latency; do gets the client
// index, an op id unique in the run and the request.
func closedLoop(m *meter, tr *tracer, clients int, blockDur time.Duration, s *stream, do func(c int, id uint64, rq request) error) {
	var (
		ids  atomic.Uint64
		wg   sync.WaitGroup
		nblk = int64(len(m.blocks))
	)
	m.blocks[0].from = readCounters()
	tr.on.Store(m.blocks[0].traced)
	defer m.sampleRSS()()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				bi := m.cur.Load()
				if bi >= nblk {
					return
				}
				b := m.blocks[bi]
				id := ids.Add(1)
				rq := s.Next()
				t0 := time.Now()
				err := do(c, id, rq)
				d := time.Since(t0)
				if err != nil {
					m.fail(err)
				}
				if b.traced {
					tr.span(spanClient, id, t0, d)
				}
				b.observe(d, err)
			}
		}(c)
	}
	start := m.blocks[0].from.at
	for i, b := range m.blocks {
		time.Sleep(time.Until(start.Add(time.Duration(i+1) * blockDur)))
		b.to = readCounters()
		if i+1 < len(m.blocks) {
			m.blocks[i+1].from = b.to
			tr.on.Store(m.blocks[i+1].traced)
		}
		m.cur.Add(1)
	}
	wg.Wait()
	tr.on.Store(false)
}

// quantile is the linear-interpolation sample quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 {
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// blockE2E is one block's end-to-end numbers.
type blockE2E struct {
	opsPerS, p50, p90, cpuUs, allocKB float64
}

func (b *block) e2e() blockE2E {
	sort.Float64s(b.lat)
	n := float64(max(b.ops(), 1))
	return blockE2E{
		opsPerS: float64(b.ok) / b.wall().Seconds(),
		p50:     quantile(b.lat, 0.5),
		p90:     quantile(b.lat, 0.9),
		cpuUs:   float64((b.to.cpu - b.from.cpu).Microseconds()) / n,
		allocKB: float64(b.to.alloc-b.from.alloc) / 1024 / n,
	}
}

// e2eMetrics reports the median over the chosen blocks of each
// end-to-end metric. peak_rss_mb is the median of the blocks' sampled
// high-water resident sets, so one block's GC overshoot on a preempted
// host moves no number; a block with no sample makes it NaN, which fails
// the run.
func e2eMetrics(blocks []*block) map[string]float64 {
	var p50, p90, cpu, alloc, rss []float64
	unsampled := false
	for _, b := range blocks {
		rss = append(rss, b.rssMax)
		unsampled = unsampled || b.rssMax <= 0
		e := b.e2e()
		p50 = append(p50, e.p50)
		p90 = append(p90, e.p90)
		cpu = append(cpu, e.cpuUs)
		alloc = append(alloc, e.allocKB)
	}
	peak := median(rss)
	if unsampled {
		peak = math.NaN()
	}
	return map[string]float64{
		"p50_ms":          median(p50),
		"p90_ms":          median(p90),
		"cpu_us_per_op":   median(cpu),
		"alloc_kb_per_op": median(alloc),
		"peak_rss_mb":     peak,
	}
}

// opsPerS is the median over blocks of verified ops per second. It is a
// per-layer diagnostic, not an end-to-end metric: a closed loop's
// throughput is clients ÷ mean latency, and the mean is set by host
// vCPU stalls (see README.md).
func opsPerS(blocks []*block) float64 {
	var ops []float64
	for _, b := range blocks {
		ops = append(ops, b.e2e().opsPerS)
	}
	return median(ops)
}

// split returns the traced and untraced blocks.
func (m *meter) split() (traced, untraced []*block) {
	for _, b := range m.blocks {
		if b.traced {
			traced = append(traced, b)
		} else {
			untraced = append(untraced, b)
		}
	}
	return traced, untraced
}

// runtimeLayers reports GC pressure over blocks: collections per
// thousand ops and the share of Go's CPU time spent collecting.
func runtimeLayers(blocks []*block, out map[string]float64) {
	var ops, gcs int
	var gcCPU, total float64
	for _, b := range blocks {
		ops += b.ops()
		gcs += int(b.to.numGC - b.from.numGC)
		gcCPU += b.to.gcCPU - b.from.gcCPU
		total += b.to.totalCPU - b.from.totalCPU
	}
	out["runtime.gc_per_kop"] = 1000 * float64(gcs) / float64(max(ops, 1))
	out["runtime.gc_cpu_share"] = ratio(gcCPU, total)
}

// tail reports the untraced blocks' p99 with the sample count behind it
// — a diagnostic only: on a 2-vCPU host p99 does not repeat within a
// tenth from run to run.
func tail(blocks []*block, out map[string]float64) {
	var all []float64
	for _, b := range blocks {
		all = append(all, b.lat...)
	}
	sort.Float64s(all)
	out["tail.p99_ms"] = quantile(all, 0.99)
	out["tail.p99_samples"] = float64(len(all))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Span kinds recorded by the benchmark's own wrappers and probes.
const (
	spanClient   = iota // client send → verified reply
	spanGateway         // gateway.Elect, timed by the WireBackend wrapper
	spanHTTP            // Server.Handler, timed by middleware
	spanHTTPHit         // the same span, for replies with cached=true
	spanHTTPMiss        // the same span, for replies with cached=false
	spanElect           // one repro.Elect in sim_grid; + algorithm index
	spanKinds    = spanElect + 4
)

var spanNames = [spanKinds]string{"client", "gateway", "http", "http_hit", "http_miss", "elect.A", "elect.B", "elect.Astar", "elect.ItaiRodeh"}

// span is one recorded interval. Client spans carry their op id, and an
// HTTP handler span carries the id of the client op that caused it (sent
// in a header). Gateway spans carry 0: RGV1 has no trace context, so they
// join client spans by time only.
type span struct {
	kind         uint8
	op           uint64
	start, durNs int64
}

// maxSpans bounds the in-memory span log (about 16 MB); aggregates keep
// counting past it.
const maxSpans = 1 << 19

// tracer keeps spans in memory while tracing is on and writes them out
// when the run ends. Aggregates (count and total per kind) are exact
// even when the log is full.
//
// The tracer also carries the in-flight gauge of the layer each
// workload's wrapper times (the gateway, the HTTP handler, the sweep
// job). It counts on every op, traced or not, so the validity guard sees
// the concurrency the layer actually ran at.
type tracer struct {
	on   atomic.Bool
	base time.Time
	n    [spanKinds]atomic.Int64
	ns   [spanKinds]atomic.Int64

	inflight, maxIn atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) span(kind int, op uint64, start time.Time, d time.Duration) {
	t.n[kind].Add(1)
	t.ns[kind].Add(d.Nanoseconds())
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{kind: uint8(kind), op: op, start: start.Sub(t.base).Nanoseconds(), durNs: d.Nanoseconds()})
	}
	t.mu.Unlock()
}

// enter and leave bracket one op inside the timed layer.
func (t *tracer) enter() {
	v := t.inflight.Add(1)
	for {
		cur := t.maxIn.Load()
		if v <= cur || t.maxIn.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (t *tracer) leave() { t.inflight.Add(-1) }

// meanUs is the mean duration of a span kind in microseconds.
func (t *tracer) meanUs(kind int) float64 {
	return ratio(float64(t.ns[kind].Load())/1e3, float64(t.n[kind].Load()))
}

// write stores the span log as gzipped CSV under dir and returns its path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".spans.csv.gz")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	zw := gzip.NewWriter(f)
	fmt.Fprintln(zw, "kind,op,start_ns,dur_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(zw, "%s,%d,%d,%d\n", spanNames[s.kind], s.op, s.start, s.durNs)
	}
	t.mu.Unlock()
	if err := zw.Close(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
