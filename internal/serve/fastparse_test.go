package serve

import (
	"bytes"
	"strings"
	"testing"
)

// Negative-path coverage for the hand-rolled fast parser guarding the
// public decision endpoint: empty queues, oversized payloads, truncated
// and garbage JSON. Each case is checked twice — once against the parser
// unit (does it bail to the encoding/json fallback cleanly, leaving no
// partial state behind?) and once through the HTTP surface (is the
// request rejected with the right status?).

// TestParseFastBailsClean: bodies the fast parser cannot handle must
// return errFastParse with every partially parsed buffer reset, so the
// encoding/json fallback starts from a clean slate.
func TestParseFastBailsClean(t *testing.T) {
	bail := []struct {
		name string
		body string
	}{
		{"empty body", ``},
		{"garbage bytes", "\x00\xff\xfe{"},
		{"not an object", `[1,2,3]`},
		{"truncated mid-key", `{"now`},
		{"truncated mid-number", `{"now":12`}, // number at EOF parses; missing } bails
		{"truncated mid-jobs", `{"now":0,"free_procs":1,"total_procs":8,"jobs":[[0,60`}, // unclosed row
		{"truncated batch", `{"states":[{"now":0,"jobs":[[0,60,2]]}`},
		{"string value", `{"now":"zero","jobs":[[0,60,2]]}`},
		{"escaped key", `{"n\ow":0}`},
		{"empty batch", `{"states":[]}`}, // legal JSON; only the fallback accepts it
		{"unknown key", `{"nope":1}`},
		{"object job row", `{"jobs":[{"submit_time":0}]}`},
		{"six-field job row", `{"jobs":[[0,60,2,1,7,9]]}`},
		{"trailing garbage", `{"now":0,"jobs":[[0,60,2]]}x`},
		{"boolean typo", `{"scores":ture,"jobs":[[0,60,2]]}`},
	}
	for _, tc := range bail {
		t.Run(tc.name, func(t *testing.T) {
			rb := &reqBuf{}
			// Seed some stale-looking state via a successful parse first,
			// so a dirty bail would be visible.
			if err := rb.parseFast([]byte(`{"now":1,"free_procs":2,"total_procs":8,"jobs":[[0,60,2]]}`)); err != nil {
				t.Fatalf("canonical body failed the fast parse: %v", err)
			}
			rb.reset()
			if err := rb.parseFast([]byte(tc.body)); err != errFastParse {
				t.Fatalf("parseFast(%q) = %v, want errFastParse", tc.body, err)
			}
			if len(rb.states) != 0 || len(rb.arena) != 0 || len(rb.jobPtr) != 0 || rb.batch {
				t.Fatalf("bail left partial state: %d states, %d arena jobs, batch=%v",
					len(rb.states), len(rb.arena), rb.batch)
			}
		})
	}
}

// TestParseFastAcceptsEdgeShapes: shapes that are canonical but easy to
// get wrong in a hand-rolled parser.
func TestParseFastAcceptsEdgeShapes(t *testing.T) {
	accept := []struct {
		name   string
		body   string
		states int
		jobs   int
	}{
		{"empty object state", `{}`, 1, 0},
		{"empty jobs array", `{"now":0,"free_procs":1,"total_procs":8,"jobs":[]}`, 1, 0},
		{"whitespace everywhere", " {\n\t\"now\" : 3.5 ,\r\"jobs\" : [ [ 0 , 60 , 2 ] ] } ", 1, 1},
		{"negative and float numbers", `{"now":-12.5,"jobs":[[-3600,1e3,2,-1,12]]}`, 1, 1},
		{"batch of two", `{"states":[{"jobs":[[0,60,2]]},{"jobs":[[0,90,4],[1,30,1]]}]}`, 2, 3},
	}
	for _, tc := range accept {
		t.Run(tc.name, func(t *testing.T) {
			rb := &reqBuf{}
			if err := rb.parseFast([]byte(tc.body)); err != nil {
				t.Fatalf("parseFast(%q) = %v, want success", tc.body, err)
			}
			if len(rb.states) != tc.states || len(rb.arena) != tc.jobs {
				t.Fatalf("parsed %d states / %d jobs, want %d / %d",
					len(rb.states), len(rb.arena), tc.states, tc.jobs)
			}
		})
	}
}

// TestDecideNegativePaths drives the same failure classes end-to-end:
// whatever path a body takes (fast parse, fallback, validation, size
// caps), the endpoint must answer 4xx — never 200, never a hang or panic.
func TestDecideNegativePaths(t *testing.T) {
	_, ts := newTestServer(t, Config{
		PolicyName:          "SJF",
		MaxBodyBytes:        4 << 10,
		MaxStatesPerRequest: 8,
	})
	cases := []struct {
		name string
		body []byte
		code int
	}{
		{"empty body", nil, 400},
		{"garbage bytes", []byte("\x00\xff\xfe{"), 400},
		{"truncated json", []byte(`{"now":0,"jobs":[[0,60,2]`), 400},
		{"empty queue", []byte(`{"now":0,"free_procs":4,"total_procs":8,"jobs":[]}`), 400},
		{"empty batch", []byte(`{"states":[]}`), 400},
		{"empty state in batch", []byte(`{"states":[{"jobs":[[0,60,2]],"total_procs":8,"free_procs":4},{"jobs":[]}]}`), 400},
		{"six-field job row", []byte(`{"now":0,"free_procs":4,"total_procs":8,"jobs":[[0,60,2,1,7,9]]}`), 400},
		{"oversized queue (states cap)", oversizedStates(t, 9), 400},
		{"oversized body (byte cap)", bytes.Repeat([]byte("x"), 5<<10), 413},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := postJSON(t, ts.URL+"/v1/decide", tc.body)
			if code != tc.code {
				t.Fatalf("got %d (%s), want %d", code, out, tc.code)
			}
			if !bytes.Contains(out, []byte(`"error"`)) {
				t.Fatalf("rejection must carry an error message: %s", out)
			}
		})
	}
	// The daemon must still answer correctly after the abuse.
	code, out := postJSON(t, ts.URL+"/v1/decide",
		[]byte(`{"now":0,"free_procs":4,"total_procs":8,"jobs":[[0,60,2]]}`))
	if code != 200 || !strings.Contains(string(out), `"pick":0`) {
		t.Fatalf("healthy request after abuse: %d %s", code, out)
	}
}

// TestMalformedNumbersRejected: the scanner takes exactly the JSON number
// grammar and integer tokens for int fields, so a body encoding/json would
// refuse is refused whichever tier reads it — the answer used to depend on
// the parser (1.5 free processors read as 1, 1e30 as MinInt64).
func TestMalformedNumbersRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: []ShardConfig{{Name: "a", Procs: 8, PolicyName: "SJF"}}})
	for _, state := range []string{
		`"now":0,"free_procs":1.5,"total_procs":8,"jobs":[[0,60,2]]`,
		`"now":0,"free_procs":1,"total_procs":1e30,"jobs":[[0,60,2]]`,
		`"now":+5,"free_procs":1,"total_procs":8,"jobs":[[0,60,2]]`,
		`"now":0,"free_procs":01,"total_procs":8,"jobs":[[0,60,2]]`,
		`"now":0,"free_procs":1,"total_procs":8,"jobs":[[.5,60,2]]`,
		`"now":0,"free_procs":1,"total_procs":8,"jobs":[[0,1.,2]]`,
	} {
		if rb := (&reqBuf{}); rb.parseFast([]byte(`{`+state+`}`)) == nil {
			t.Errorf("scanner accepted {%s}", state)
		}
		for path, body := range map[string]string{
			"/v1/decide": `{` + state + `}`,
			"/place":     `{"job":[0,60,2],"clusters":[{"name":"a",` + state + `}]}`,
		} {
			if code, out := postJSON(t, ts.URL+path, []byte(body)); code != 400 || !bytes.Contains(out, []byte("bad ")) {
				t.Errorf("%s %s: %d %s, want the fallback's 400", path, body, code, out)
			}
		}
	}
	// The well-formed twin of those bodies is fine on both.
	ok := `"now":5,"free_procs":1,"total_procs":8,"jobs":[[0.5,1.0e1,2]]`
	for path, body := range map[string]string{
		"/v1/decide": `{` + ok + `}`,
		"/place":     `{"job":[0,60,1],"clusters":[{"name":"a",` + ok + `}]}`,
	} {
		if code, out := postJSON(t, ts.URL+path, []byte(body)); code != 200 {
			t.Errorf("%s %s: %d %s", path, body, code, out)
		}
	}
}

func oversizedStates(t *testing.T, n int) []byte {
	t.Helper()
	states := testStates(t, n, 2)
	return EncodeStates(states)
}
