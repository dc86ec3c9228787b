package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/client"
	"repro/internal/rng"
)

// Offered load of http-query-mix, an open loop.
const (
	// updateEvery paces /update bodies on connection A: 400 batches/s,
	// 1.6 M items/s, about a quarter of what one HTTP connection carries
	// on the reference host, so the backlog stays flat.
	updateEvery = 2500 * time.Microsecond
	// mergeEvery paces /merge pushes on connection A: 100 in a 20 s run,
	// which takes the summary past max_blobs (64) into compaction.
	mergeEvery = 200 * time.Millisecond
	// queryEvery paces queries on connection B: 50/s, 1000 in a 20 s
	// run. Every query after an update rebuilds the union view, several
	// ms of daemon CPU at m=4096 with tens of blobs on the reference
	// host, so 50/s keeps the daemon well under one core.
	queryEvery = 20 * time.Millisecond
	// hotKeys bounds the ids /estimate queries pick from: the head of
	// the skewed distributions, where dashboards look.
	hotKeys = 1000
)

// newHTTPClient returns a client that keeps at most one connection to
// the daemon.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 10 * time.Second}).DialContext,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// phase is what a load loop needs besides its connections.
type phase struct {
	in    *inputs
	seed  uint64
	dur   time.Duration
	sl    slicing
	epoch time.Time
	// cpu reads the daemon's CPU time.
	cpu func() (time.Duration, error)
	// cutEvery is how often the load loop records a cut: throughput,
	// CPU per item and the ingest tail are medians over the slices
	// between cuts, so a burst of interference from outside the
	// benchmark moves one slice, not the run. A tenth of the phase,
	// which at 20 s is also the durable workload's snapshot interval,
	// and at least minSlice.
	cutEvery time.Duration
}

// minSlice keeps a slice at 20 or more ticks of the 10 ms /proc CPU
// clock, even in a shortened smoke run.
const minSlice = 200 * time.Millisecond

// cut is the state of the measured phase at one instant.
type cut struct {
	at    time.Time
	items int
	cpu   time.Duration
}

// live is the outcome of one measured phase.
type live struct {
	// positions is the trace prefix the daemon was sent; failedFrames
	// lists the frame starts within it that were not acknowledged.
	positions    int
	failedFrames []int
	merges       int // acknowledged /merge pushes
	elapsed      time.Duration
	ops, failed  int
	ingestLat    []float64   // ms; a wire group up to its ack, or an HTTP write from its due time
	ingestAt     []time.Time // when each ingestLat sample completed
	ackLat       []float64   // ms; the Flush round trip, or the /update response time
	queryLat     []float64   // ms
	late         []float64   // ms; generator lateness, open loop only
	overhead     overhead
	spans        [][]span
	notes        []string
	cuts         []cut
	nextCut      time.Time
}

// cut records a cut once cutEvery has passed since the last one, or
// always when force is set.
func (r *live) cut(p phase, items int, force bool) {
	now := time.Now()
	if !force && now.Before(r.nextCut) {
		return
	}
	cpu, err := p.cpu()
	if err != nil {
		r.fail("reading the daemon's CPU time: %v", err)
		return
	}
	r.cuts = append(r.cuts, cut{now, items, cpu})
	r.nextCut = now.Add(p.cutEvery)
}

// slices returns the throughput and the daemon CPU per item of every
// slice between cuts, skipping a final stub shorter than half a slice.
func (r *live) slices(p phase) (rates, cpuPerItem []float64) {
	for i := 1; i < len(r.cuts); i++ {
		a, b := r.cuts[i-1], r.cuts[i]
		d, n := b.at.Sub(a.at), b.items-a.items
		if d < p.cutEvery/2 || n <= 0 {
			continue
		}
		rates = append(rates, float64(n)/d.Seconds())
		cpuPerItem = append(cpuPerItem, float64(b.cpu-a.cpu)/float64(n))
	}
	return rates, cpuPerItem
}

// sliceQuantile is the median over the slices between cuts of each
// slice's q-quantile of ingest latency, so one stretch of outside
// interference moves one slice's tail, not the run's.
func (r *live) sliceQuantile(p phase, q float64) float64 {
	var per []float64
	j := 0
	for i := 1; i < len(r.cuts); i++ {
		var lat []float64
		for ; j < len(r.ingestAt) && r.ingestAt[j].Before(r.cuts[i].at); j++ {
			lat = append(lat, r.ingestLat[j])
		}
		if r.cuts[i].at.Sub(r.cuts[i-1].at) >= p.cutEvery/2 && len(lat) > 0 {
			per = append(per, quantile(lat, q))
		}
	}
	return median(per)
}

func (r *live) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// slicing alternates traced and untraced stretches of a traced live
// run, so both see the same daemon state; every is 0 when untraced.
type slicing struct{ every time.Duration }

func (s slicing) traced() bool { return s.every > 0 }

// on reports whether spans are recorded at elapsed.
func (s slicing) on(elapsed time.Duration) bool {
	return s.every > 0 && (elapsed/s.every)%2 == 1
}

// overhead splits the benchmark's own CPU time and acknowledged items
// between traced and untraced slices (index 1 and 0).
type overhead struct {
	cpu   [2]time.Duration
	items [2]uint64
	mode  int
	mark  time.Duration
}

func (o *overhead) enter(traced bool) {
	mode := 0
	if traced {
		mode = 1
	}
	now := selfCPU()
	if o.mark != 0 {
		o.cpu[o.mode] += now - o.mark
	}
	o.mode, o.mark = mode, now
}

func (o *overhead) finish() { o.enter(false) }

// frac is the extra client CPU per item that tracing costs.
func (o *overhead) frac() float64 {
	per := func(i int) float64 { return float64(o.cpu[i]) / float64(max(o.items[i], 1)) }
	return per(1)/per(0) - 1
}

// driveWire runs the closed loop on one hhwire connection for dur:
// groups of framesPerFlush frames, each group closed by an acked Flush.
// The next group starts only when the previous one is acknowledged.
func driveWire(wc *client.WireConn, p phase) live {
	var r live
	tr := newTracer(p.epoch)
	start := time.Now()
	r.cut(p, 0, true)
	for group := uint64(0); time.Since(start) < p.dur; group++ {
		tr.on = p.sl.on(time.Since(start))
		if p.sl.traced() {
			r.overhead.enter(tr.on)
		}
		g0 := time.Now()
		gs := tr.begin("client.group", -1, group)
		for f := range framesPerFlush {
			keys := p.in.keys.batch(p.in.frame(r.positions + f*batchKeys))
			h := tr.begin("client.push", gs, group*framesPerFlush+uint64(f))
			err := wc.PushBatch(keys)
			tr.end(h)
			r.ops++
			if err != nil {
				r.fail("push: %v", err)
				return r.finishWire(tr, start, p)
			}
		}
		h := tr.begin("client.flush", gs, group)
		t := time.Now()
		err := wc.Flush()
		r.ackLat = append(r.ackLat, ms(time.Since(t)))
		tr.end(h)
		tr.end(gs)
		r.ops++
		if err != nil {
			r.fail("flush: %v", err)
			return r.finishWire(tr, start, p)
		}
		r.positions += framesPerFlush * batchKeys
		r.overhead.items[r.overhead.mode] += framesPerFlush * batchKeys
		r.ingestLat, r.ingestAt = append(r.ingestLat, ms(time.Since(g0))), append(r.ingestAt, time.Now())
		r.cut(p, r.positions, false)
	}
	return r.finishWire(tr, start, p)
}

func (r *live) finishWire(tr *tracer, start time.Time, p phase) live {
	r.elapsed = time.Since(start)
	r.cut(p, r.positions, true)
	if p.sl.traced() {
		r.overhead.finish()
	}
	r.spans = append(r.spans, tr.spans)
	return *r
}

// queryLoad is the outcome of one query loop.
type queryLoad struct {
	lat         []float64 // ms
	ops, failed int
	spans       []span
	notes       []string
}

// query issues the i-th query of the rotation: /top?k=10,
// /heavyhitters?phi=0.001, /estimate of a hot key.
func query(ctx context.Context, c *client.Client, i int, in *inputs, src *rng.Source) error {
	switch i % 3 {
	case 0:
		_, err := c.Top(ctx, 10)
		return err
	case 1:
		_, err := c.HeavyHitters(ctx, 0.001)
		return err
	default:
		id := uint32(src.Uint64n(uint64(min(hotKeys, len(in.trace)))))
		_, err := c.Estimate(ctx, in.keys.key(in.trace[id]))
		return err
	}
}

var queryNames = [3]string{"http.query.top", "http.query.heavyhitters", "http.query.estimate"}

// runQueries runs the query rotation on c from start until end. With
// every > 0 it is an open loop of queries due every apart, each timed
// from its due time; otherwise a closed loop, each query timed from its
// send.
func runQueries(ctx context.Context, c *client.Client, p phase, start, end time.Time, every time.Duration) queryLoad {
	var q queryLoad
	tr := newTracer(p.epoch)
	src := rng.New(p.seed ^ 0xbb67ae8584caa73b)
	for i := 0; ; i++ {
		due := time.Now()
		if every > 0 {
			due = start.Add(time.Duration(i) * every)
		}
		if !due.Before(end) {
			break
		}
		time.Sleep(time.Until(due))
		tr.on = p.sl.on(time.Since(start))
		h := tr.begin(queryNames[i%3], -1, uint64(i))
		err := query(ctx, c, i, p.in, src)
		tr.end(h)
		q.ops++
		if err != nil {
			q.failed++
			if len(q.notes) < 8 {
				q.notes = append(q.notes, fmt.Sprintf("query %d: %v", i, err))
			}
			continue
		}
		q.lat = append(q.lat, ms(time.Since(due)))
	}
	q.spans = tr.spans
	return q
}

// driveHTTP runs the open loop for dur: connection A carries /update
// bodies every updateEvery and a /merge of the agent blob every
// mergeEvery, connection B queries every queryEvery. Each request is
// timed from the moment it was due, so a stall also charges the requests
// queued behind it.
func driveHTTP(ctx context.Context, upd, qry *client.Client, p phase) live {
	var r live
	in := p.in
	start := time.Now()
	end := start.Add(p.dur)
	var q queryLoad
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		q = runQueries(ctx, qry, p, start, end, queryEvery)
	}()

	tr := newTracer(p.epoch)
	prevDone := start
	acked := 0
	r.cut(p, 0, true)
	for nu, nm := 0, 0; ; {
		due := start.Add(time.Duration(nu) * updateEvery)
		isMerge := false
		if dm := start.Add(mergeEvery/2 + time.Duration(nm)*mergeEvery); dm.Before(due) {
			due, isMerge = dm, true
		}
		if !due.Before(end) {
			break
		}
		tr.on = p.sl.on(time.Since(start))
		if p.sl.traced() {
			r.overhead.enter(tr.on)
		}
		time.Sleep(time.Until(due))
		sent := time.Now()
		r.late = append(r.late, ms(sent.Sub(later(due, prevDone))))
		r.ops++
		if isMerge {
			h := tr.begin("http.merge", -1, uint64(nm))
			mass, err := upd.MergeBlob(ctx, bytes.NewReader(in.blob))
			tr.end(h)
			switch {
			case err != nil:
				r.fail("merge %d: %v", nm, err)
			case mass != in.agentMass:
				r.fail("merge %d: server acknowledged mass %v, blob holds %v", nm, mass, in.agentMass)
			default:
				r.merges++
			}
			nm++
		} else {
			keys := in.keys.batch(in.frame(nu * batchKeys))
			h := tr.begin("http.update", -1, uint64(nu))
			n, err := upd.PushBinary(ctx, keys)
			tr.end(h)
			if err == nil && n != len(keys) {
				err = fmt.Errorf("server ingested %d of %d keys", n, len(keys))
			}
			if err != nil {
				r.fail("update %d: %v", nu, err)
				r.failedFrames = append(r.failedFrames, nu*batchKeys)
			} else {
				acked += batchKeys
				r.overhead.items[r.overhead.mode] += batchKeys
			}
			nu++
			r.positions = nu * batchKeys
		}
		prevDone = time.Now()
		if !isMerge {
			r.ackLat = append(r.ackLat, ms(prevDone.Sub(sent)))
		}
		r.ingestLat, r.ingestAt = append(r.ingestLat, ms(prevDone.Sub(due))), append(r.ingestAt, prevDone)
		r.cut(p, acked, false)
	}
	r.elapsed = time.Since(start)
	r.cut(p, acked, true)
	if p.sl.traced() {
		r.overhead.finish()
	}
	wg.Wait()
	r.queryLat = q.lat
	r.ops += q.ops
	r.failed += q.failed
	r.notes = append(r.notes, q.notes...)
	r.spans = append(r.spans, tr.spans, q.spans)
	return r
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
