package main

import (
	"fmt"
	"time"

	"repro/internal/sweep"

	repro "repro"
)

// gridWorkers is the internal/sweep pool width, one per vCPU of the
// reference host and equal to the closed-loop client count elsewhere.
const gridWorkers = 2

// gridEnv is sim_grid: the offline paper sweep through repro.Elect, the
// event-driven simulator path ringbench and the experiments use, fanned
// out by a 2-worker internal/sweep pool. One op is one election.
type gridEnv struct {
	cells []gridCell
	ref   []repro.Outcome // the first set-up pass's outcome per cell
	tr    *tracer
}

// gridWarmPasses is the set-up's pass count: the first records every
// cell's outcome, which each later pass, timed or not, must reproduce.
const gridWarmPasses = 4

func setupGrid(seed int64, tr *tracer) (env, error) {
	e := &gridEnv{cells: newGrid(seed), tr: tr}
	e.ref = make([]repro.Outcome, len(e.cells))
	for pass := 0; pass < gridWarmPasses; pass++ {
		err := sweep.ForEach(gridWorkers, len(e.cells), func(i int) error {
			out, err := e.elect(i)
			if err != nil {
				return err
			}
			if pass == 0 {
				e.ref[i] = *out
			} else if *out != e.ref[i] {
				return fmt.Errorf("cell %d: outcome %+v differs from the first pass's %+v", i, *out, e.ref[i])
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return e, nil
}

// elect runs one cell and checks it against the oracle and the paper's
// bounds: Theorem 2's time, message and space bounds for Ak, Theorem 4's
// exact space and the proof-constant time envelope for Bk, Ak's time
// bound for A*, and a valid leader for Itai–Rodeh on symmetric rings.
// repro.Elect itself fails on any spec-checker violation.
func (e *gridEnv) elect(i int) (*repro.Outcome, error) {
	c := &e.cells[i]
	out, err := repro.Elect(c.ring, c.alg, c.k)
	if err != nil {
		return nil, fmt.Errorf("%v k=%d [%s]: %w", c.alg, c.k, specOf(c.labels), err)
	}
	n, k, b := len(c.labels), c.k, c.ring.LabelBits()
	bad := func(what string, got, limit any) error {
		return fmt.Errorf("%v k=%d [%s]: %s %v, bound %v", c.alg, k, specOf(c.labels), what, got, limit)
	}
	if c.alg == repro.AlgorithmItaiRodeh {
		if out.Leader < 0 || out.Leader >= n {
			return nil, bad("leader", out.Leader, n)
		}
		return out, nil
	}
	if out.Leader != c.leader {
		return nil, bad("leader", out.Leader, c.leader)
	}
	switch c.alg {
	case repro.AlgorithmA:
		if limit := float64((2*k + 2) * n); out.TimeUnits > limit {
			return nil, bad("time", out.TimeUnits, limit)
		}
		if limit := n*n*(2*k+1) + n; out.Messages > limit {
			return nil, bad("messages", out.Messages, limit)
		}
		if limit := (2*k+1)*n*b + 2*b + 3; out.PeakSpaceBits > limit {
			return nil, bad("space", out.PeakSpaceBits, limit)
		}
	case repro.AlgorithmB:
		if want := 2*ceilLog2(k) + 3*b + 5; out.PeakSpaceBits != want {
			return nil, bad("space", out.PeakSpaceBits, want)
		}
		if limit := float64((k+1)*n*((k+1)*n+n) + 2*n); out.TimeUnits > limit {
			return nil, bad("time", out.TimeUnits, limit)
		}
	case repro.AlgorithmAStar:
		if limit := float64((2*k + 2) * n); out.TimeUnits > limit {
			return nil, bad("time", out.TimeUnits, limit)
		}
	}
	return out, nil
}

func ceilLog2(v int) int {
	b := 0
	for p := 1; p < v; p <<= 1 {
		b++
	}
	return b
}

// algIndex maps a grid algorithm to its place in gridAlgs.
func algIndex(a repro.Algorithm) int {
	for i, g := range gridAlgs {
		if g == a {
			return i
		}
	}
	panic(fmt.Sprintf("algorithm %v is not in the grid", a))
}

// run sweeps whole passes over the grid until the window ends. A block
// boundary is marked between passes, so every block holds whole passes
// and its counters cover exactly its elections.
func (e *gridEnv) run(m *meter, blockDur time.Duration) {
	m.blocks[0].from = readCounters()
	start := m.blocks[0].from.at
	cur := 0
	e.tr.on.Store(m.blocks[0].traced)
	defer m.sampleRSS()()
	for {
		if bi := int(time.Since(start) / blockDur); bi > cur {
			m.blocks[cur].to = readCounters()
			cur++
			m.cur.Store(int64(cur))
			if cur == len(m.blocks) {
				break
			}
			m.blocks[cur].from = m.blocks[cur-1].to
			e.tr.on.Store(m.blocks[cur].traced)
		}
		b := m.blocks[cur]
		err := sweep.ForEach(gridWorkers, len(e.cells), func(i int) error {
			e.tr.enter()
			t0 := time.Now()
			out, err := e.elect(i)
			d := time.Since(t0)
			e.tr.leave()
			if err == nil && *out != e.ref[i] {
				err = fmt.Errorf("cell %d: outcome %+v differs from the first pass's %+v", i, *out, e.ref[i])
			}
			if err != nil {
				m.fail(err)
			}
			if b.traced {
				e.tr.span(spanElect+algIndex(e.cells[i].alg), 0, t0, d)
			}
			b.observe(d, err)
			return nil
		})
		if err != nil {
			m.fail(err)
		}
	}
	e.tr.on.Store(false)
}

func (e *gridEnv) guard() error { return nil }

func (e *gridEnv) layers(m *meter, out map[string]float64) error {
	traced, _ := m.split()
	var wall time.Duration
	var ops int
	var mallocs uint64
	for _, b := range traced {
		wall += b.wall()
		ops += b.ops()
		mallocs += b.to.mallocs - b.from.mallocs
	}
	var busyNs int64
	names := []string{"A", "B", "Astar", "ItaiRodeh"}
	msgs := make([]int, len(gridAlgs))
	count := make([]int, len(gridAlgs))
	for i, c := range e.cells {
		a := algIndex(c.alg)
		msgs[a] += e.ref[i].Messages
		count[a]++
	}
	for a, name := range names {
		out["sim.elect_us."+name] = e.tr.meanUs(spanElect + a)
		out["sim.msgs_per_elect."+name] = ratio(float64(msgs[a]), float64(count[a]))
		busyNs += e.tr.ns[spanElect+a].Load()
	}
	out["sim.allocs_per_elect"] = ratio(float64(mallocs), float64(ops))
	busy := ratio(float64(busyNs), float64(gridWorkers)*float64(wall.Nanoseconds()))
	out["sweep.busy_share"] = busy
	// Worker time outside any election: pool hand-off and pass barriers.
	out["unattributed_share"] = 1 - busy

	items := make([]kernelItem, len(e.cells))
	for i, c := range e.cells {
		items[i] = kernelItem{r: c.ring, alg: c.alg, k: c.k}
	}
	us, allocs, err := probeKernel(items)
	if err != nil {
		return fmt.Errorf("kernel probe: %w", err)
	}
	out["kernel.elect_us"] = us
	out["kernel.allocs_per_op"] = allocs
	return nil
}

func (e *gridEnv) close() {}
