package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/secure"
	"repro/internal/serve"

	repro "repro"
)

// Probes time one layer's public function in isolation, after the timed
// window, over the run's own inputs. Each runs for about probeTime.
const probeTime = 150 * time.Millisecond

// electFrameBytes is the size of an RGV1 ELECT frame for a 12-process
// ring, the payload the secure record probe seals: length prefix (4),
// version and type (2), id (8), algorithm (1), k (1) and twelve one-byte
// label varints.
const electFrameBytes = 28

// kernelItem is one election the kernel probe runs.
type kernelItem struct {
	r   *repro.Ring
	alg repro.Algorithm
	k   int
}

func bkItems(reqs []request) ([]kernelItem, error) {
	items := make([]kernelItem, 0, len(reqs))
	for _, rq := range reqs {
		r, err := repro.NewRing(rq.labels)
		if err != nil {
			return nil, err
		}
		items = append(items, kernelItem{r: r, alg: repro.AlgorithmB, k: benchK})
	}
	return items, nil
}

// probeKernel runs repro.ElectInto with one ElectScratch over items,
// cycling until probeTime has passed, and reports the mean time and the
// heap allocations per election.
func probeKernel(items []kernelItem) (us, allocs float64, err error) {
	if len(items) == 0 {
		return 0, 0, nil
	}
	sc := repro.NewElectScratch()
	var out repro.Outcome
	for _, it := range items[:min(len(items), 8)] { // warm the arena
		if err := repro.ElectInto(it.r, it.alg, it.k, sc, &out); err != nil {
			return 0, 0, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := 0
	start := time.Now()
	for time.Since(start) < probeTime || n == 0 {
		it := items[n%len(items)]
		if err := repro.ElectInto(it.r, it.alg, it.k, sc, &out); err != nil {
			return 0, 0, err
		}
		n++
	}
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(d.Microseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// kernelLayers reports the kernel probe and the replica time it does
// not explain: replica.nonkernel_us is the replica's service time minus
// the kernel time its misses spend.
func kernelLayers(items []kernelItem, hitRatio, serviceUs float64, out map[string]float64) error {
	us, allocs, err := probeKernel(items)
	if err != nil {
		return fmt.Errorf("kernel probe: %w", err)
	}
	out["kernel.elect_us"] = us
	out["kernel.allocs_per_op"] = allocs
	out["replica.nonkernel_us"] = serviceUs - us*(1-hitRatio)
	return nil
}

// probeKeys reports serve.AppendCanonicalKey and Rendezvous.Rank over the
// run's requests, in ns per call.
func probeKeys(names []string, reqs []request, out map[string]float64) {
	if len(reqs) == 0 {
		return
	}
	var key []byte
	n := 0
	start := time.Now()
	for time.Since(start) < probeTime {
		for i := 0; i < 256; i++ {
			key, _ = serve.AppendCanonicalKey(key[:0], reqs[n%len(reqs)].labels, repro.AlgorithmB, benchK)
			n++
		}
	}
	out["canon.key_ns"] = float64(time.Since(start).Nanoseconds()) / float64(n)

	keys := make([][]byte, len(reqs))
	for i, rq := range reqs {
		keys[i], _ = serve.CanonicalKey(rq.labels, repro.AlgorithmB, benchK)
	}
	rv := cluster.NewRendezvous(names)
	var rank []int
	n = 0
	start = time.Now()
	for time.Since(start) < probeTime {
		for i := 0; i < 256; i++ {
			rank = rv.Rank(keys[n%len(keys)], rank[:0])
			n++
		}
	}
	out["rendezvous.rank_ns"] = float64(time.Since(start).Nanoseconds()) / float64(n)
}

// probeSecureRecord seals ELECT-sized frames on a secure.Client and opens
// them on a secure.Server over an in-memory pipe: the per-record cost of
// ringsec without a socket. It reports µs per record.
func probeSecureRecord(out map[string]float64) error {
	ck, err := secure.GenerateKey()
	if err != nil {
		return err
	}
	sk, err := secure.GenerateKey()
	if err != nil {
		return err
	}
	cp, sp := net.Pipe()
	defer cp.Close()
	defer sp.Close()
	type accepted struct {
		c   *secure.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := secure.Server(sp, &secure.ServerConfig{Config: secure.Config{Identity: sk}})
		ch <- accepted{c, err}
	}()
	cc, err := secure.Client(cp, &secure.ClientConfig{Config: secure.Config{Identity: ck}, ServerKey: sk.Public()})
	if err != nil {
		return fmt.Errorf("secure probe handshake: %w", err)
	}
	acc := <-ch
	if acc.err != nil {
		return fmt.Errorf("secure probe handshake: %w", acc.err)
	}
	read := make(chan int64, 1)
	go func() {
		buf := make([]byte, electFrameBytes)
		var got int64
		for {
			if _, err := io.ReadFull(acc.c, buf); err != nil {
				read <- got
				return
			}
			got++
		}
	}()
	frame := make([]byte, electFrameBytes)
	n := 0
	start := time.Now()
	for time.Since(start) < probeTime {
		for i := 0; i < 64; i++ {
			if _, err := cc.Write(frame); err != nil {
				return fmt.Errorf("secure probe write: %w", err)
			}
			n++
		}
	}
	d := time.Since(start)
	cc.Close()
	if got := <-read; got != int64(n) {
		return fmt.Errorf("secure probe: sealed %d records, opened %d", n, got)
	}
	out["secure.record_us"] = float64(d.Nanoseconds()) / 1e3 / float64(n)
	return nil
}
