// Command perfbench is the repository's closed-loop benchmark. It runs
// one named workload in-process for a fixed window and prints, as the
// last line of standard output, one JSON object with the run's
// correctness, op counts and metrics: the end-to-end metrics by default,
// the per-layer metrics with --trace 1. See README.md in this directory
// for the workloads and what each metric should move.
//
//	go build -o perfbench . && ./perfbench --workload routed_hit --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// env is one workload, set up and ready to time.
type env interface {
	// run drives the timed window, block by block.
	run(m *meter, blockDur time.Duration)
	// guard reports a run-invalidating condition seen by the layers.
	guard() error
	// layers adds the workload's per-layer metrics (trace runs only).
	layers(m *meter, out map[string]float64) error
	close()
}

type workload struct {
	setup   func(seed int64, tr *tracer) (env, error)
	clients int // closed-loop clients or sweep workers
	// inputHash digests the seed's input: the first hashedRequests of the
	// request stream, or the whole grid.
	inputHash func(seed int64) uint64
}

const hashedRequests = 4096

var workloads = map[string]workload{
	"routed_hit": {
		setup:   func(seed int64, tr *tracer) (env, error) { return setupRouted(true, seed, tr) },
		clients: benchClients,
		inputHash: func(seed int64) uint64 {
			_, s := newHitStream(seed)
			return hashPrefix(s, hashedRequests)
		},
	},
	"routed_miss": {
		setup:     func(seed int64, tr *tracer) (env, error) { return setupRouted(false, seed, tr) },
		clients:   benchClients,
		inputHash: func(seed int64) uint64 { return hashPrefix(newMissStream(seed), hashedRequests) },
	},
	"ringd_http_mix": {
		setup:   setupHTTP,
		clients: benchClients,
		inputHash: func(seed int64) uint64 {
			_, s := newMixStream(seed)
			return hashPrefix(s, hashedRequests)
		},
	},
	"sim_grid": {
		setup:     setupGrid,
		clients:   gridWorkers,
		inputHash: func(seed int64) uint64 { return hashGrid(newGrid(seed)) },
	},
}

// Set-up is repeated setupRuns times (all but the last torn down again)
// and setup_s reports the median.
const setupRuns = 5

// Blocks per window: ten for the end-to-end run; six for the traced
// run, alternating untraced and traced so tracing overhead is measured
// against interleaved blocks.
const (
	e2eBlocks   = 10
	traceBlocks = 6
)

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
	name := flag.String("workload", "", "workload: routed_hit, routed_miss, ringd_http_mix or sim_grid")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "timed window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "where the traced run writes its span log")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(*name, wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *traceDir)
	if res != nil {
		line, jerr := json.Marshal(res)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", jerr)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
		os.Exit(1)
	}
}

func run(name string, wl workload, seed int64, window time.Duration, trace bool, traceDir string) (*result, error) {
	tr := newTracer()
	var setups []float64
	var e env
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		var err error
		if e, err = wl.setup(seed, tr); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		fmt.Fprintf(os.Stderr, "set-up %d: %.3fs\n", i, setups[i])
		if i+1 < setupRuns {
			e.close()
		}
	}
	defer e.close()

	blocks := e2eBlocks
	if trace {
		blocks = traceBlocks
	}
	m := newMeter(blocks, trace)
	e.run(m, window/time.Duration(blocks))
	attempted, failed := m.totals()
	for i, b := range m.blocks {
		be := b.e2e()
		fmt.Fprintf(os.Stderr, "block %d traced=%v ops=%d wall=%.3fs ops/s=%.1f p50=%.4fms p90=%.4fms cpu=%.2fus/op alloc=%.3fKiB/op\n",
			i, b.traced, b.ops(), b.wall().Seconds(), be.opsPerS, be.p50, be.p90, be.cpuUs, be.allocKB)
	}

	info := map[string]any{
		"workload":     name,
		"seed":         seed,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"go":           runtime.Version(),
		"commit":       commit(),
		"source":       sourceDigest(),
		"input_hash":   fmt.Sprintf("%016x", wl.inputHash(seed)),
		"clients":      wl.clients,
		"max_inflight": tr.maxIn.Load(),
	}
	var problems []string
	if m.firstErr != nil {
		problems = append(problems, fmt.Sprintf("%d failed ops; first: %v", failed, m.firstErr))
	}
	if in := tr.maxIn.Load(); in > int64(wl.clients) {
		problems = append(problems, fmt.Sprintf("%d ops in flight in the timed layer, more than %d clients", in, wl.clients))
	}
	if err := e.guard(); err != nil {
		problems = append(problems, err.Error())
	}

	out := map[string]float64{}
	if trace {
		if err := layerMetrics(e, m, tr, out); err != nil {
			problems = append(problems, err.Error())
		}
		path, err := tr.write(traceDir, fmt.Sprintf("%s-seed%d", name, seed))
		if err != nil {
			problems = append(problems, "writing span log: "+err.Error())
		}
		info["span_log"] = path
	} else {
		for k, v := range e2eMetrics(m.blocks) {
			out[k] = v
		}
		out["setup_s"] = median(setups)
	}
	if line, err := json.Marshal(map[string]any{"perfbench": info}); err == nil {
		fmt.Println(string(line))
	}

	res := &result{Correct: len(problems) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for k, v := range out {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// JSON has no infinity: a percentile reached by failed ops, or
			// an empty sample, is reported as -1 on a run already marked
			// incorrect.
			v = -1
			res.Correct = false
			problems = append(problems, "metric "+k+" has no finite value")
		}
		res.Metrics[k] = metric{Value: v, Unit: units[k]}
	}
	if !res.Correct {
		sort.Strings(problems)
		return res, fmt.Errorf("%s: %s", name, strings.Join(problems, "; "))
	}
	return res, nil
}

// layerMetrics fills every per-layer metric. Metrics of a layer the
// workload's path does not cross are reported as 0.
func layerMetrics(e env, m *meter, tr *tracer, out map[string]float64) error {
	for _, name := range perLayer {
		out[name] = 0
	}
	traced, untraced := m.split()
	if err := e.layers(m, out); err != nil {
		return err
	}
	if err := probeSecureRecord(out); err != nil {
		return err
	}
	runtimeLayers(traced, out)
	tail(untraced, out)
	out["throughput.ops_per_s"] = opsPerS(untraced)
	out["trace.overhead_share"] = e2eMetrics(traced)["p50_ms"]/e2eMetrics(untraced)["p50_ms"] - 1
	if len(out) != len(perLayer) {
		return fmt.Errorf("traced run produced %d metrics, want the %d per-layer ones", len(out), len(perLayer))
	}
	return nil
}

// warmUp runs n ops from benchClients closed-loop clients and returns the
// first error.
func warmUp(n int, do func(c int) error) error {
	var left atomic.Int64
	left.Store(int64(n))
	var wg sync.WaitGroup
	var once sync.Once
	var first error
	for c := 0; c < benchClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for left.Add(-1) >= 0 {
				if err := do(c); err != nil {
					once.Do(func() { first = err })
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return first
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod file under the working
// directory (the checkout root, when started by run.py), identifying the
// code under test where no VCS revision exists.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
