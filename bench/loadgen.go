package main

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator: one process, a fixed pool of keep-alive loopback
// connections, and two ways of driving them. The closed loop sends a
// connection's next request when the previous reply is fully read — the
// callers of a scheduler daemon that each wait for their answer — and
// gives throughput. The open loop sends on a fixed schedule whatever the
// server does — independent clusters polling — and gives latency, timed
// from the instant each request was due so that the wait a stall imposes
// on later requests is counted (no coordinated omission).

// traffic is what a serving workload gives the generator.
type traffic interface {
	// request builds the i-th request of the run as sent on connection
	// conn; token names it to check. The body is only read.
	request(conn int, i int64) (body []byte, token int)
	// check reports whether resp answers the request correctly. It runs on
	// the connection's goroutine, so per-connection state needs no lock.
	check(conn, token int, resp []byte) bool
}

type loadgen struct {
	url    string
	client *http.Client
	conns  int
	tr     traffic
	next   atomic.Int64 // request counter, doubling as the trace id
	log    *spanLog     // nil when the run is never traced
}

// newLoadgen opens a pool of exactly conns connections to url.
func newLoadgen(url string, conns int, tr traffic, log *spanLog) *loadgen {
	transport := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &loadgen{
		url:    url,
		client: &http.Client{Transport: transport, Timeout: 10 * time.Second},
		conns:  conns,
		tr:     tr,
		log:    log,
	}
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

// phase is the outcome of one closed- or open-loop phase.
type phase struct {
	start     time.Time // closed loop: the first send; open loop: when request 0 was due
	wall      time.Duration
	attempted int
	failed    int             // failed, refused, answered wrongly or unanswered at phase end
	lat       []time.Duration // correct replies only, sorted
	replies   []reply         // the same replies, as they came
	rtt       time.Duration   // sum of the correct replies' round trips (send to reply)
	late      []time.Duration // open loop: actual send minus due time, sorted
	backlog   int             // open loop: deepest dispatcher backlog
	grew      bool            // open loop: the backlog was still growing at the end
}

// reply is one correct reply: when its request was due (sent, in the closed
// loop) and how long after that it was fully read.
type reply struct {
	due time.Time
	lat time.Duration
}

// windows cuts the span from p.start into n equal windows and sorts p's
// replies into them by when each was due. Each window's latencies come back
// sorted.
func (p *phase) windows(span time.Duration, n int) [][]time.Duration {
	out := make([][]time.Duration, n)
	for _, r := range p.replies {
		if w := int(r.due.Sub(p.start) * time.Duration(n) / span); !r.due.Before(p.start) && w < n {
			out[w] = append(out[w], r.lat)
		}
	}
	for _, w := range out {
		slices.Sort(w)
	}
	return out
}

// rates cuts the span from p.start into n equal windows and returns the
// replies per second completed in each: the replies after a window's first,
// over the time from the first to the last (a window with fewer than two is
// left out). A reply completed after the span (the closed loop's last on
// each connection) is in no window.
func (p *phase) rates(span time.Duration, n int) []float64 {
	type window struct {
		first, last time.Duration // since p.start
		replies     int
	}
	ws := make([]window, n)
	for _, r := range p.replies {
		at := r.due.Add(r.lat).Sub(p.start)
		i := int(at * time.Duration(n) / span)
		if at < 0 || i >= n {
			continue
		}
		w := &ws[i]
		if w.replies == 0 || at < w.first {
			w.first = at
		}
		w.last = max(w.last, at)
		w.replies++
	}
	var out []float64
	for _, w := range ws {
		if w.replies >= 2 && w.last > w.first {
			out = append(out, float64(w.replies-1)/(w.last-w.first).Seconds())
		}
	}
	return out
}

func (p *phase) merge(q phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.lat = append(p.lat, q.lat...)
	p.replies = append(p.replies, q.replies...)
	p.rtt += q.rtt
	p.late = append(p.late, q.late...)
}

// conn is one connection's identity and reply buffer.
type conn struct {
	id   int
	resp []byte
}

// post sends one request on c and checks the reply. due is when the
// request should have left; the closed loop passes the send time itself.
func (g *loadgen) post(c *conn, due time.Time, out *phase) {
	i := g.next.Add(1)
	body, token := g.tr.request(c.id, i)
	out.attempted++
	req, err := http.NewRequest(http.MethodPost, g.url, bytes.NewReader(body))
	if err != nil {
		out.failed++
		return
	}
	req.Header.Set("Content-Type", "application/json")
	traced := g.log != nil && g.log.on.Load()
	if traced {
		req.Header.Set(benchIDHdr, strconv.FormatInt(i, 10))
	}
	t0 := time.Now()
	if due.IsZero() {
		due = t0
	}
	resp, err := g.client.Do(req)
	if err != nil {
		out.failed++
		return
	}
	buf := bytes.NewBuffer(c.resp[:0])
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	c.resp = buf.Bytes()
	t1 := time.Now()
	if traced {
		g.log.add(spanClient, t0, t1, i, 0)
	}
	if err != nil || resp.StatusCode != http.StatusOK || !g.tr.check(c.id, token, c.resp) {
		out.failed++
		return
	}
	out.lat = append(out.lat, t1.Sub(due))
	out.replies = append(out.replies, reply{due, t1.Sub(due)})
	out.rtt += t1.Sub(t0)
}

// pool runs work once per connection, each on its own goroutine, and
// merges what they report.
func (g *loadgen) pool(work func(c *conn, out *phase)) phase {
	parts := make([]phase, g.conns)
	var wg sync.WaitGroup
	for k := 0; k < g.conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			work(&conn{id: k}, &parts[k])
		}(k)
	}
	wg.Wait()
	var all phase
	for _, p := range parts {
		all.merge(p)
	}
	slices.Sort(all.lat)
	slices.Sort(all.late)
	return all
}

// closed drives every connection back to back for d.
func (g *loadgen) closed(d time.Duration) phase {
	start := time.Now()
	end := start.Add(d)
	p := g.pool(func(c *conn, out *phase) {
		for time.Now().Before(end) {
			g.post(c, time.Time{}, out)
		}
	})
	p.start, p.wall = start, time.Since(start)
	return p
}

// lateStart is how long after a segment's end a queued request may still be
// sent. The sandbox freezes for up to a few hundred milliseconds now and
// then; what was due during a freeze is served late, and its latency says
// so, but it is not lost. Past two seconds the server is not coming back.
const lateStart = 2 * time.Second

// open sends rate requests per second for d: request k is due at
// start + k/rate. A sleep-paced dispatcher hands each due request to the
// connection pool through a queue; the segment is over when the queue is
// drained, and a request still queued lateStart after the last one was due
// counts as failed. If the queue is still growing at the end the server
// cannot sustain the rate, and every request of the segment fails.
func (g *loadgen) open(rate float64, d time.Duration) phase {
	total := int(rate * d.Seconds())
	if total < 1 {
		total = 1
	}
	// Buffered for the whole segment: the dispatcher must never block on a
	// slow pool, and the channel's length is the backlog.
	queue := make(chan time.Time, total)
	start := time.Now()
	end := start.Add(d)
	dueAt := func(k int) time.Time { return start.Add(time.Duration(float64(k) / rate * float64(time.Second))) }

	var p phase
	done := make(chan struct{})
	go func() {
		defer close(done)
		p = g.pool(func(c *conn, out *phase) {
			for due := range queue {
				now := time.Now()
				if now.After(end.Add(lateStart)) {
					out.attempted++
					out.failed++
					continue
				}
				out.late = append(out.late, now.Sub(due))
				g.post(c, due, out)
			}
		})
	}()

	// The backlog is read at every wake of the dispatcher: its peak, its
	// value at the three-quarter mark and at the end, and its floor over
	// the last quarter.
	backlogMax, backlogAtThreeQuarters, backlogAtEnd, lastQuarterMin := 0, 0, 0, total
	for sent := 0; sent < total; {
		now := time.Now()
		n := int(now.Sub(start).Seconds()*rate) + 1
		if n > total {
			n = total
		}
		for ; sent < n; sent++ {
			queue <- dueAt(sent)
		}
		backlogAtEnd = len(queue)
		backlogMax = max(backlogMax, backlogAtEnd)
		if sent <= total*3/4 {
			backlogAtThreeQuarters = backlogAtEnd
		} else {
			lastQuarterMin = min(lastQuarterMin, backlogAtEnd)
		}
		if sent < total {
			time.Sleep(time.Until(dueAt(sent)))
		}
	}
	close(queue)
	<-done // p is the pool's from here on
	p.backlog = backlogMax
	p.start, p.wall = start, time.Since(start)
	// Still growing: throughout the last quarter more than 50 ms of
	// arrivals were queued, and the queue ended at its peak, above the
	// three-quarter mark. A rate above capacity does that. A freeze does
	// not: its backlog peaks when the freeze ends and drains from there.
	if float64(lastQuarterMin) > 0.05*rate && backlogAtEnd > backlogAtThreeQuarters && 10*backlogAtEnd >= 9*backlogMax {
		p.grew = true
		p.failed = p.attempted
		p.lat = nil
	}
	return p
}

// quantile is the nearest-rank q-quantile of sorted samples, exact: no
// buckets, no interpolation. With fewer than 1/(1-q) samples it is the
// maximum.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(0, int(math.Ceil(q*float64(len(sorted))))-1)]
}

// calmQuartile picks, among the latency quantiles a phase's windows
// measured, the first quartile (nearest rank). The host this runs on is
// shared, and what its other tenants do adds time, in bursts of milliseconds
// that come and go over seconds and minutes, and never takes any away, so the
// median window follows the host (README.md has the measurement). The
// quartile is still no best case: what the program itself does in three
// windows of four it reports in full.
func calmQuartile(windows []float64) float64 {
	if len(windows) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(windows))
	return s[max(0, int(math.Ceil(0.25*float64(len(s))))-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
