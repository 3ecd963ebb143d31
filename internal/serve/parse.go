package serve

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// The scanner is the one decoder of /v1/decide, /place and /migrate
// bodies, and its grammar is the wire format: an object of the endpoint's
// documented keys, JSON numbers, booleans, ASCII strings without escapes,
// and job and completed rows as arrays of numbers. Anything else is
// refused, and the refusal names the first construct outside the grammar
// and its byte offset: a string escape or non-ASCII byte, an object-form
// row, an unknown or case-folded key, null, a repeated jobs, completed,
// clusters or states key. Whatever it accepts, encoding/json decodes to
// the same parsed form (FuzzParseRequest, FuzzPlaceParse).

// stateKeys are a queue state's keys, for naming a case-folded key.
const stateKeys = "now free_procs total_procs queue_len scores jobs"

type scanner struct {
	b     []byte
	i     int
	keyAt int    // offset of the object key being read
	what  string // the first refusal, found at byte at
	at    int
}

// fail records the first refusal, found at the current byte, and returns
// false. A null where a value belongs is named as such.
func (p *scanner) fail(what string) bool {
	if p.what == "" {
		if bytes.HasPrefix(p.b[p.i:], []byte("null")) {
			what = "null"
		}
		p.what, p.at = what, p.i
	}
	return false
}

// done turns the outcome of a whole-body parse into its error: nil when
// ok and nothing but whitespace is left, else the first refusal.
func (p *scanner) done(ok bool) error {
	if ok && (p.end() || p.fail("data after the request")) {
		return nil
	}
	return fmt.Errorf("%s at byte %d", p.what, p.at)
}

func (p *scanner) ws() {
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
func (p *scanner) lit(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *scanner) eat(c byte) bool {
	p.ws()
	return p.lit(c)
}

// end reports that nothing but whitespace is left.
func (p *scanner) end() bool {
	p.ws()
	return p.i == len(p.b)
}

// str parses a string of printable ASCII without escapes — its bytes are
// its value — and returns them; they alias the body.
func (p *scanner) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, p.fail("expected a string")
	}
	for start := p.i; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c == '\\':
			return nil, p.fail("string escape")
		case c >= 0x80:
			return nil, p.fail("non-ASCII byte")
		case c < ' ':
			return nil, p.fail("control character in a string")
		}
	}
	return nil, p.fail("unterminated string")
}

// digits skips a run of decimal digits and reports its length.
func (p *scanner) digits() int {
	start := p.i
	for p.i < len(p.b) && p.b[p.i]-'0' <= 9 {
		p.i++
	}
	return p.i - start
}

// number parses exactly the JSON number grammar. isInt reports an integer
// token of at most 15 digits: exact in a float64 and in an int, and
// converted without strconv (the common case — SWF times are whole seconds).
func (p *scanner) number() (v float64, isInt, ok bool) {
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
		p.i = start
		return 0, false, p.fail("expected a number")
	}
	if !isInt {
		v, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
		if err != nil {
			p.i = start
			return 0, false, p.fail("number out of range")
		}
		return v, false, true
	}
	if v = float64(n); neg {
		v = -v
	}
	return v, true, true
}

// integer parses an int field's value: like encoding/json, integer tokens
// only (no 1.5, no 1e3), and none a float64 would round.
func (p *scanner) integer() (int, bool) {
	p.ws()
	start := p.i
	v, isInt, ok := p.number()
	if ok && !isInt {
		p.i = start
		return 0, p.fail("expected an integer of at most 15 digits")
	}
	return int(v), ok
}

func (p *scanner) boolean() (bool, bool) {
	p.ws()
	for _, lit := range [...]string{"true", "false"} {
		if bytes.HasPrefix(p.b[p.i:], []byte(lit)) {
			p.i += len(lit)
			return lit == "true", true
		}
	}
	return false, p.fail("expected true or false")
}

// list parses open item,item,... close; item consumes each item.
func (p *scanner) list(open, close byte, item func() bool) bool {
	if !p.eat(open) {
		return p.fail("expected " + string(open))
	}
	if p.eat(close) {
		return true
	}
	for item() {
		if !p.eat(',') {
			return p.eat(close) || p.fail("expected , or "+string(close))
		}
	}
	return false
}

// array parses [element,...]; elem consumes each element.
func (p *scanner) array(elem func() bool) bool { return p.list('[', ']', elem) }

// object parses {"key":value,...}; field consumes the value of each key.
func (p *scanner) object(field func(key []byte) bool) bool {
	return p.list('{', '}', func() bool {
		p.ws()
		p.keyAt = p.i
		key, ok := p.str()
		return ok && (p.eat(':') || p.fail("expected :")) && field(key)
	})
}

// badKey refuses the key being read.
func (p *scanner) badKey(what string, key []byte) bool {
	p.i = p.keyAt
	return p.fail(fmt.Sprintf("%s %q", what, key))
}

// unknown refuses a key that is none of known's; one that differs from a
// known key only in case is named case-folded (encoding/json would have
// matched it).
func (p *scanner) unknown(key []byte, known string) bool {
	for _, k := range strings.Fields(known) {
		if strings.EqualFold(k, string(key)) {
			return p.badKey("case-folded key", key)
		}
	}
	return p.badKey("unknown key", key)
}

// once refuses the second occurrence of an array-valued key.
func (p *scanner) once(seen *bool, key []byte) bool {
	if *seen {
		return p.badKey("repeated key", key)
	}
	*seen = true
	return true
}

// row parses one compact row of least to len(vals) numbers — a job or a
// completed record — into vals.
func (p *scanner) row(vals []float64, least int, what string) bool {
	p.ws()
	start, n := p.i, 0
	if p.i < len(p.b) && p.b[p.i] == '{' {
		return p.fail("object-form " + what)
	}
	ok := p.array(func() bool {
		if n == len(vals) {
			return p.fail(fmt.Sprintf("%s of more than %d values", what, len(vals)))
		}
		var good bool
		vals[n], _, good = p.number()
		n++
		return good
	})
	if ok && n < least {
		p.i = start
		return p.fail(fmt.Sprintf("%s of %d values, fewer than %d", what, n, least))
	}
	return ok
}

// state parses one {...} queue state into the arena/state lists. With
// cluster set it is a /place cluster, which also takes name, running_work
// and completed.
func (p *scanner) state(rb *reqBuf, cluster bool) bool {
	var st QueueState
	var vals [5]float64
	var cl placeCluster
	var jobs, completed bool
	base, doneBase := len(rb.jobPtr), len(rb.done)
	ok := p.object(func(key []byte) (ok bool) {
		switch k := string(key); {
		case k == "now":
			st.Now, _, ok = p.number()
		case k == "free_procs":
			st.View.FreeProcs, ok = p.integer()
		case k == "total_procs":
			st.View.TotalProcs, ok = p.integer()
		case k == "queue_len":
			st.QueueLen, ok = p.integer()
		case k == "scores":
			st.WantScores, ok = p.boolean()
		case k == "jobs":
			ok = p.once(&jobs, key) && p.array(func() bool {
				vals = [5]float64{3: -1}
				ok := p.row(vals[:], 3, "job row")
				if ok {
					rb.addJob(rowJob(&vals))
				}
				return ok
			})
		case cluster && k == "name":
			var name []byte
			name, ok = p.str()
			cl.Name = string(name)
		case cluster && k == "running_work":
			cl.RunningWork, _, ok = p.number()
		case cluster && k == "completed":
			ok = p.once(&completed, key) && p.array(func() bool {
				ok := p.row(vals[:3], 3, "completed row")
				if ok {
					rb.done = append(rb.done, wireDone{UserID: int(vals[0]), Wait: vals[1], Run: vals[2]})
				}
				return ok
			})
		case cluster:
			ok = p.unknown(key, stateKeys+" name running_work completed")
		default:
			ok = p.unknown(key, stateKeys)
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

// parseDecide parses a /v1/decide body: one queue state, or the batch form
// {"states":[{...},...]}, which is told apart by its first key.
func (rb *reqBuf) parseDecide(body []byte) error {
	p := scanner{b: body}
	rb.batch = p.eat('{') && p.eat('"') && bytes.HasPrefix(body[p.i:], []byte(`states"`))
	p.i = 0
	if !rb.batch {
		return p.done(p.state(rb, false))
	}
	var seen bool
	return p.done(p.object(func(key []byte) bool {
		if string(key) != "states" {
			return p.unknown(key, "states")
		}
		return p.once(&seen, key) && p.array(func() bool { return p.state(rb, false) }) &&
			(len(rb.states) > 0 || p.badKey("empty", key))
	}))
}

// parsePlace parses a /place or /migrate body.
func (rb *reqBuf) parsePlace(body []byte) error {
	p := scanner{b: body}
	var clusters bool
	return p.done(p.object(func(key []byte) (ok bool) {
		var s []byte
		switch string(key) {
		case "job":
			vals := [5]float64{3: -1}
			ok = p.row(vals[:], 3, "job row")
			rb.job = rowJob(&vals)
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
			ok = p.once(&clusters, key) && p.array(func() bool { return p.state(rb, true) })
		default:
			ok = p.unknown(key, "job from client batch_seq clusters")
		}
		return ok
	}))
}
