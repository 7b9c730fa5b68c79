package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand/v2"
	"sync"

	"repro/internal/ring"

	repro "repro"
)

// The generator is the benchmark's own: every input comes from a
// math/rand/v2 PCG stream seeded by --seed, so the same seed yields a
// byte-identical ring stream and grid, and nothing in the program under
// test (ringload's BuildPlan included) can move the inputs.

// request is one generated election request with its expected answer.
type request struct {
	labels []ring.Label
	spec   string // the labels as a space-separated string, for HTTP bodies
	leader int    // ring.TrueLeader of labels, in the sent frame
	cached bool   // the answer the cached flag must carry
	// repeat marks a cold ring whose rotation class the stream sent
	// before: whether its reply is cached depends on timing, so either
	// answer passes.
	repeat bool
	class  uint8 // classHot, classRotated or classCold
}

const (
	classHot uint8 = iota
	classRotated
	classCold
)

func newPCG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// randomRing draws n labels from 1..alpha with no label used more than k
// times and rejects periodic (symmetric) draws, so the result lies in
// the paper's class A ∩ Kk.
func randomRing(rng *rand.Rand, n, k, alpha int) []ring.Label {
	counts := make([]int, alpha+1)
	for {
		clear(counts)
		labels := make([]ring.Label, n)
		for i := range labels {
			for {
				l := 1 + rng.IntN(alpha)
				if counts[l] < k {
					counts[l]++
					labels[i] = ring.Label(l)
					break
				}
			}
		}
		if !periodic(labels) {
			return labels
		}
	}
}

// periodic reports whether labels equals one of its proper rotations.
func periodic(labels []ring.Label) bool {
	n := len(labels)
	for d := 1; d < n; d++ {
		if n%d != 0 {
			continue
		}
		same := true
		for i := d; i < n && same; i++ {
			same = labels[i] == labels[i-d]
		}
		if same {
			return true
		}
	}
	return false
}

// canonicalString renders the lexicographically least rotation, the
// generator's own dedupe key (quadratic, independent of the program's
// Booth implementation).
func canonicalString(labels []ring.Label) string {
	n := len(labels)
	best := 0
	for d := 1; d < n; d++ {
		for i := 0; i < n; i++ {
			a, b := labels[(d+i)%n], labels[(best+i)%n]
			if a != b {
				if a < b {
					best = d
				}
				break
			}
		}
	}
	return specOf(rotate(labels, best))
}

func rotate(labels []ring.Label, d int) []ring.Label {
	n := len(labels)
	out := make([]ring.Label, n)
	for i := range out {
		out[i] = labels[(i+d)%n]
	}
	return out
}

func specOf(labels []ring.Label) string {
	b := make([]byte, 0, 3*len(labels))
	for i, l := range labels {
		if i > 0 {
			b = append(b, ' ')
		}
		b = fmt.Appendf(b, "%d", l)
	}
	return string(b)
}

// trueLeader is the oracle every reply is checked against.
func trueLeader(labels []ring.Label) int {
	r, err := ring.New(labels)
	if err != nil {
		panic(err) // generated rings are never empty
	}
	idx, ok := r.TrueLeader()
	if !ok {
		return -1
	}
	return idx
}

func newRequest(labels []ring.Label, class uint8, cached bool) request {
	return request{labels: labels, spec: specOf(labels), leader: trueLeader(labels), cached: cached, class: class}
}

// hashRequest folds one request into the input digest.
func hashRequest(h hash.Hash64, rq request) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(rq.labels))|uint64(rq.class)<<32)
	h.Write(buf[:])
	for _, l := range rq.labels {
		binary.LittleEndian.PutUint64(buf[:], uint64(l))
		h.Write(buf[:])
	}
}

// stream is a deterministic, unbounded request sequence shared by the
// clients of one run: Next hands out requests in generation order, so
// the sequence depends only on the seed, never on timing.
type stream struct {
	mu   sync.Mutex
	next func() request
	keep []request // the first probeKeep requests handed out, for probes
}

// probeKeep bounds the requests a stream keeps for the layer probes.
const probeKeep = 2048

func (s *stream) Next() request {
	s.mu.Lock()
	rq := s.next()
	if len(s.keep) < probeKeep {
		s.keep = append(s.keep, rq)
	}
	s.mu.Unlock()
	return rq
}

// kept returns the requests kept for probes.
func (s *stream) kept() []request {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.keep
}

// hashPrefix digests the first n requests of s.
func hashPrefix(s *stream, n int) uint64 {
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		hashRequest(h, s.Next())
	}
	return h.Sum64()
}

// freshRings yields rings whose rotation classes never repeat, and never
// collide with the classes in seen (which it extends).
func freshRings(rng *rand.Rand, n, k, alpha int, seen map[string]struct{}) func() []ring.Label {
	return func() []ring.Label {
		for {
			labels := randomRing(rng, n, k, alpha)
			key := canonicalString(labels)
			if _, dup := seen[key]; !dup {
				seen[key] = struct{}{}
				return labels
			}
		}
	}
}

const (
	hitHotRings = 64
	hitN        = 12
	missN       = 16
	benchK      = 3
	benchAlpha  = 8
)

// newHitStream is routed_hit's input: a hot set of Bk rings (n=12, k=3),
// returned for prefill, and a stream sending them under seeded random
// rotations. Every rotation is materialized once, so a client does no
// generation work per request.
func newHitStream(seed int64) ([][]ring.Label, *stream) {
	rng := newPCG(seed, 1)
	gen := freshRings(rng, hitN, benchK, benchAlpha, map[string]struct{}{})
	hot := make([][]ring.Label, hitHotRings)
	rotations := make([][]request, hitHotRings)
	for i := range hot {
		hot[i] = gen()
		rotations[i] = make([]request, hitN)
		for d := range rotations[i] {
			rotations[i][d] = newRequest(rotate(hot[i], d), classRotated, true)
		}
	}
	return hot, &stream{next: func() request {
		return rotations[rng.IntN(hitHotRings)][rng.IntN(hitN)]
	}}
}

// newMissStream yields fresh Bk rings (n=16, k=3) whose classes never
// repeat within the run, so every request misses every cache.
func newMissStream(seed int64) *stream {
	rng := newPCG(seed, 2)
	gen := freshRings(rng, missN, benchK, benchAlpha, map[string]struct{}{})
	return &stream{next: func() request { return newRequest(gen(), classCold, false) }}
}

// The mix takes ringload's default parameters (cmd/ringload with no
// flags): a hot set of 4 rings, the paper's Figure 1 ring and three
// random ones with n in 4..10; cold rings with n in 4..12; labels from
// 1..max(4, n); 45% hot, 30% rotated, 25% cold; Bk with k=3.
const (
	mixHotRings     = 4
	mixHotShare     = 0.45
	mixRotatedShare = 0.30
)

// figure1 is the ring of the paper's Figure 1, the first ring of the
// mix's hot set.
var figure1 = []ring.Label{1, 3, 1, 3, 2, 2, 1, 2}

// newMixStream is ringd_http_mix's input: the hot set, returned for
// prefill, and the mixed stream over it. Hot and rotated requests are
// materialized once. Cold rings are drawn on demand and, as in
// ringload, may repeat a class already sent (small rings have few
// classes); a cold ring whose class is new must come back uncached.
func newMixStream(seed int64) ([][]ring.Label, *stream) {
	rng := newPCG(seed, 3)
	seen := map[string]struct{}{canonicalString(figure1): {}}
	hot := [][]ring.Label{figure1}
	for len(hot) < mixHotRings {
		n := 4 + rng.IntN(7)
		hot = append(hot, freshRings(rng, n, benchK, max(4, n), seen)())
	}
	rotations := make([][]request, len(hot))
	for i := range hot {
		rotations[i] = make([]request, len(hot[i]))
		rotations[i][0] = newRequest(hot[i], classHot, true)
		for d := 1; d < len(hot[i]); d++ {
			rotations[i][d] = newRequest(rotate(hot[i], d), classRotated, true)
		}
	}
	return hot, &stream{next: func() request {
		switch u := rng.Float64(); {
		case u < mixHotShare:
			return rotations[rng.IntN(len(hot))][0]
		case u < mixHotShare+mixRotatedShare:
			rots := rotations[rng.IntN(len(hot))]
			return rots[1+rng.IntN(len(rots)-1)]
		default:
			n := 4 + rng.IntN(9)
			labels := randomRing(rng, n, benchK, max(4, n))
			key := canonicalString(labels)
			_, repeat := seen[key]
			seen[key] = struct{}{}
			rq := newRequest(labels, classCold, false)
			rq.repeat = repeat
			return rq
		}
	}}
}

// gridCell is one sim_grid election.
type gridCell struct {
	alg    repro.Algorithm
	k      int
	labels []ring.Label
	ring   *repro.Ring
	leader int // -1 for the symmetric Itai–Rodeh rings
}

const gridRingsPerCell = 16

// gridAlgs are the grid's algorithms, in report order.
var gridAlgs = []repro.Algorithm{repro.AlgorithmA, repro.AlgorithmB, repro.AlgorithmAStar, repro.AlgorithmItaiRodeh}

// newGrid builds the paper sweep: Ak, Bk and A* on asymmetric A ∩ Kk
// rings with n ∈ {8,16,32} and k ∈ {2,3}, plus Itai–Rodeh on symmetric
// rings of the same sizes.
func newGrid(seed int64) []gridCell {
	rng := newPCG(seed, 4)
	var cells []gridCell
	add := func(alg repro.Algorithm, k int, labels []ring.Label) {
		r, err := repro.NewRing(labels)
		if err != nil {
			panic(err) // generated rings are never empty
		}
		cells = append(cells, gridCell{alg: alg, k: k, labels: labels, ring: r, leader: trueLeader(labels)})
	}
	for _, alg := range gridAlgs[:3] {
		for _, n := range []int{8, 16, 32} {
			for _, k := range []int{2, 3} {
				alpha := max(benchAlpha, (n+k-1)/k+1)
				for i := 0; i < gridRingsPerCell; i++ {
					add(alg, k, randomRing(rng, n, k, alpha))
				}
			}
		}
	}
	for _, n := range []int{8, 16, 32} {
		for i := 0; i < 2*gridRingsPerCell; i++ {
			// A pattern of length d repeated n/d ≥ 2 times: symmetric.
			divs := []int{1, 2, 4}
			d := divs[rng.IntN(len(divs))]
			pat := make([]ring.Label, d)
			for j := range pat {
				pat[j] = ring.Label(1 + rng.IntN(4))
			}
			labels := make([]ring.Label, n)
			for j := range labels {
				labels[j] = pat[j%d]
			}
			add(repro.AlgorithmItaiRodeh, 0, labels)
		}
	}
	return cells
}

func hashGrid(cells []gridCell) uint64 {
	h := fnv.New64a()
	for _, c := range cells {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(c.alg)|uint64(c.k)<<16)
		h.Write(buf[:])
		hashRequest(h, request{labels: c.labels})
	}
	return h.Sum64()
}
