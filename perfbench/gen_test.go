package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestInputHashesPinned pins the generated inputs: a change to the
// generator that moves any workload's ring stream or grid changes the
// benchmark's inputs, and must show here.
func TestInputHashesPinned(t *testing.T) {
	want := map[string]map[int64]string{
		"routed_hit":     {1: "972dda23132bcbaf", 2: "56054292ed034eee"},
		"routed_miss":    {1: "f68769ceca6d77e6", 2: "8088f594d8723264"},
		"ringd_http_mix": {1: "f00427a331727f65", 2: "3e889040e50608e4"},
		"sim_grid":       {1: "de7aa1c7ace5b7d5", 2: "1f285972313c56c3"},
	}
	for name, seeds := range want {
		for seed, h := range seeds {
			for rep := 0; rep < 2; rep++ {
				if got := fmt.Sprintf("%016x", workloads[name].inputHash(seed)); got != h {
					t.Errorf("%s seed %d (pass %d): input hash %s, want %s", name, seed, rep, got, h)
				}
			}
		}
	}
}

// TestMissStreamNeverRepeats checks the property routed_miss relies on:
// no two requests share a rotation class, and every ring is in A ∩ K3.
func TestMissStreamNeverRepeats(t *testing.T) {
	s := newMissStream(7)
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		rq := s.Next()
		key := canonicalString(rq.labels)
		if seen[key] {
			t.Fatalf("request %d repeats class %s", i, key)
		}
		seen[key] = true
		if periodic(rq.labels) || rq.leader < 0 {
			t.Fatalf("request %d [%s] is symmetric", i, rq.spec)
		}
		counts := map[int64]int{}
		for _, l := range rq.labels {
			if counts[int64(l)]++; counts[int64(l)] > benchK {
				t.Fatalf("request %d [%s] has a label more than %d times", i, rq.spec, benchK)
			}
		}
	}
}

// TestMixStreamFollowsRingloadDefaults checks the mix against ringload's
// default parameters: a hot set of 4 led by the Figure 1 ring, hot n in
// 4..10, cold n in 4..12, the 45/30/25 split, and a repeat flag on
// exactly the cold rings whose class was sent before.
func TestMixStreamFollowsRingloadDefaults(t *testing.T) {
	hot, s := newMixStream(3)
	if len(hot) != 4 || canonicalString(hot[0]) != canonicalString(figure1) {
		t.Fatalf("hot set %v, want 4 rings led by Figure 1", hot)
	}
	seen := map[string]bool{}
	for _, h := range hot[1:] {
		if n := len(h); n < 4 || n > 10 {
			t.Errorf("hot ring %v has n=%d, want 4..10", h, n)
		}
	}
	for _, h := range hot {
		seen[canonicalString(h)] = true
	}
	const n = 20000
	var counts [3]int
	for i := 0; i < n; i++ {
		rq := s.Next()
		counts[rq.class]++
		key := canonicalString(rq.labels)
		switch {
		case rq.class != classCold && !seen[key]:
			t.Fatalf("request %d [%s] class %d is not in the hot set", i, rq.spec, rq.class)
		case rq.class == classCold && rq.repeat != seen[key]:
			t.Fatalf("request %d [%s]: repeat=%v, class sent before %v", i, rq.spec, rq.repeat, seen[key])
		case rq.class == classCold && (len(rq.labels) < 4 || len(rq.labels) > 12):
			t.Fatalf("request %d [%s]: cold n=%d, want 4..12", i, rq.spec, len(rq.labels))
		}
		seen[key] = true
	}
	for class, share := range []float64{mixHotShare, mixRotatedShare, 1 - mixHotShare - mixRotatedShare} {
		if got := float64(counts[class]) / n; got < share-0.02 || got > share+0.02 {
			t.Errorf("class %d share %.3f, want %.2f", class, got, share)
		}
	}
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json and the program's
// metric tables in step: same names, same units, same per-layer set.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if units[m.Name] != m.Unit {
			t.Errorf("metric %s: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, units[m.Name])
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i] {
			t.Errorf("per-layer metric %d: %s in BENCHMARK.json, %s in the program", i, m.Name, perLayer[i])
		}
	}
}
