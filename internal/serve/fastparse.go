package serve

import (
	"fmt"
	"strconv"

	"rlsched/internal/sim"
)

// The scanner handles the canonical compact bodies high-rate clients emit
// on /v1/decide, /place and /migrate: objects with the documented keys,
// JSON numbers, booleans, escape-free ASCII strings, and job and completed
// rows as arrays of numbers. Anything else — escapes, object rows, unknown
// or repeated array keys, null — makes it bail to encoding/json. It accepts
// nothing encoding/json rejects and agrees with it on everything it accepts
// (FuzzParseRequest, FuzzPlaceParse): the answer never depends on the tier.

var errFastParse = fmt.Errorf("serve: not a canonical compact request")

type fastParser struct {
	b []byte
	i int
}

func (p *fastParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// lit consumes c if it is the next byte; eat skips whitespace first.
func (p *fastParser) lit(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *fastParser) eat(c byte) bool {
	p.ws()
	return p.lit(c)
}

// end reports that nothing but whitespace is left.
func (p *fastParser) end() bool {
	p.ws()
	return p.i == len(p.b)
}

// str parses a JSON string that needs no decoding — ASCII, no escapes —
// and returns its bytes, which alias the body.
func (p *fastParser) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	for start := p.i; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c == '\\' || c < ' ' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// digits skips a run of decimal digits and reports its length.
func (p *fastParser) digits() int {
	start := p.i
	for p.i < len(p.b) && p.b[p.i]-'0' <= 9 {
		p.i++
	}
	return p.i - start
}

// number parses exactly the JSON number grammar. isInt reports an integer
// token of at most 15 digits: exact in a float64 and in an int, and
// converted without strconv (the common case — SWF times are whole seconds).
func (p *fastParser) number() (v float64, isInt, ok bool) {
	p.ws()
	start := p.i
	neg := p.lit('-')
	b, i, n := p.b, p.i, uint64(0)
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		n = n*10 + uint64(b[i]-'0') // wraps only where isInt is false
	}
	first, nd := p.i, i-p.i
	p.i = i
	bad := nd == 0 || (nd > 1 && p.b[first] == '0') // no leading zeros
	isInt = nd <= 15
	if p.lit('.') {
		isInt, bad = false, bad || p.digits() == 0
	}
	if p.lit('e') || p.lit('E') {
		_ = p.lit('+') || p.lit('-')
		isInt, bad = false, bad || p.digits() == 0
	}
	if bad {
		return 0, false, false
	}
	if !isInt {
		v, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
		return v, false, err == nil
	}
	if v = float64(n); neg {
		v = -v
	}
	return v, true, true
}

// integer parses an int field's value: like encoding/json, integer tokens
// only (no 1.5, no 1e3), and none a float64 would round.
func (p *fastParser) integer() (int, bool) {
	v, isInt, ok := p.number()
	return int(v), ok && isInt
}

func (p *fastParser) boolean() (bool, bool) {
	p.ws()
	if len(p.b)-p.i >= 4 && string(p.b[p.i:p.i+4]) == "true" {
		p.i += 4
		return true, true
	}
	if len(p.b)-p.i >= 5 && string(p.b[p.i:p.i+5]) == "false" {
		p.i += 5
		return false, true
	}
	return false, false
}

// list parses open item,item,... close; item consumes each item.
func (p *fastParser) list(open, close byte, item func() bool) bool {
	if !p.eat(open) {
		return false
	}
	if p.eat(close) {
		return true
	}
	for item() {
		if !p.eat(',') {
			return p.eat(close)
		}
	}
	return false
}

// array parses [element,...]; elem consumes each element.
func (p *fastParser) array(elem func() bool) bool { return p.list('[', ']', elem) }

// object parses {"key":value,...}; field consumes the value of each key.
func (p *fastParser) object(field func(key []byte) bool) bool {
	return p.list('{', '}', func() bool {
		key, ok := p.str()
		return ok && p.eat(':') && field(key)
	})
}

// row parses one compact row of up to len(vals) numbers — a job or a
// completed record — and reports how many it held.
func (p *fastParser) row(vals *[5]float64) (n int, ok bool) {
	ok = p.array(func() bool {
		if n == len(vals) {
			return false
		}
		v, _, ok := p.number()
		vals[n] = v
		n++
		return ok
	})
	return n, ok
}

// state parses one {...} queue state into the arena/state lists. name,
// running_work and completed are a /place cluster's, kept with cluster set
// (/v1/decide reads past them, as encoding/json does).
func (p *fastParser) state(rb *reqBuf, cluster bool) bool {
	var st QueueState
	var vals [5]float64
	var cl placeCluster
	base, doneBase := len(rb.jobPtr), len(rb.done)
	ok := p.object(func(key []byte) (ok bool) {
		switch string(key) {
		case "now":
			st.Now, _, ok = p.number()
		case "free_procs":
			st.View.FreeProcs, ok = p.integer()
		case "total_procs":
			st.View.TotalProcs, ok = p.integer()
		case "queue_len":
			st.QueueLen, ok = p.integer()
		case "scores":
			st.WantScores, ok = p.boolean()
		case "jobs":
			// encoding/json decodes a repeated array over the first one's
			// elements; leave that to it.
			ok = len(rb.jobPtr) == base && p.array(func() bool {
				var w wireJob
				n, ok := p.row(&vals)
				if ok = ok && w.fromRow(&vals, n); ok {
					rb.addJob(w.toJob())
				}
				return ok
			})
		case "name":
			var name []byte
			name, ok = p.str()
			cl.Name = string(name)
		case "running_work":
			cl.RunningWork, _, ok = p.number()
		case "completed":
			ok = len(rb.done) == doneBase && p.array(func() bool {
				var w wireDone
				n, ok := p.row(&vals)
				if ok = ok && w.fromRow(&vals, n); ok {
					rb.done = append(rb.done, w)
				}
				return ok
			})
		}
		return ok
	})
	if !ok {
		return false
	}
	rb.addState(st, base)
	if cluster {
		cl.Completed = rb.done[doneBase:len(rb.done):len(rb.done)] // stays valid the way addJob's slices do
		rb.clusters = append(rb.clusters, cl)
	}
	return true
}

// parseFast attempts the canonical compact parse of a /v1/decide body: the
// batch form {"states":[{...},...]}, else the whole object as one state.
func (rb *reqBuf) parseFast(body []byte) error {
	p := fastParser{b: body}
	if p.object(func(key []byte) bool {
		if rb.batch || string(key) != "states" {
			return false
		}
		rb.batch = true
		return p.array(func() bool { return p.state(rb, false) })
	}) && len(rb.states) > 0 && p.end() {
		return nil
	}
	rb.bail()
	p.i = 0
	if p.state(rb, false) && p.end() {
		return nil
	}
	return rb.bail()
}

// parsePlaceFast attempts the canonical compact parse of a /place or
// /migrate body.
func (rb *reqBuf) parsePlaceFast(body []byte) error {
	p := fastParser{b: body}
	if p.object(func(key []byte) (ok bool) {
		var s []byte
		switch string(key) {
		case "job":
			var vals [5]float64
			var w wireJob
			n, rowOK := p.row(&vals)
			ok = rowOK && w.fromRow(&vals, n)
			rb.job = w.toJob()
		case "from":
			s, ok = p.str()
			rb.from = string(s)
		case "client":
			s, ok = p.str()
			rb.client = string(s)
		case "batch_seq":
			var v int
			v, ok = p.integer()
			seq := int64(v)
			rb.batchSeq = &seq
		case "clusters":
			ok = len(rb.states) == 0 && p.array(func() bool { return p.state(rb, true) })
		}
		return ok
	}) && p.end() {
		return nil
	}
	return rb.bail()
}

// bail clears what a failed scan parsed before the encoding/json retry.
func (rb *reqBuf) bail() error {
	rb.reset()
	return errFastParse
}

// ClusterViewOf is a tiny helper for tests constructing states.
func ClusterViewOf(free, total int) sim.ClusterView {
	return sim.ClusterView{FreeProcs: free, TotalProcs: total}
}
