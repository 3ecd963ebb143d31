package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// Negative-path coverage for the scanner guarding the public decision
// endpoint: empty queues, oversized payloads, truncated and garbage JSON,
// and constructs outside the wire format. Each case is checked against the
// scanner unit (is it refused with the construct and its offset named?)
// and through the HTTP surface (is the request rejected with the right
// status?).

// TestParseFastBailsClean: bodies outside the grammar are refused with an
// error naming the first construct outside it and its byte offset.
func TestParseFastBailsClean(t *testing.T) {
	bail := []struct {
		name string
		body string
		want string
	}{
		{"empty body", ``, "expected { at byte 0"},
		{"garbage bytes", "\x00\xff\xfe{", "expected { at byte 0"},
		{"not an object", `[1,2,3]`, "expected { at byte 0"},
		{"truncated mid-key", `{"now`, "unterminated string at byte 5"},
		{"truncated mid-number", `{"now":12`, "expected , or } at byte 9"},                                            // number at EOF parses; missing } refused
		{"truncated mid-jobs", `{"now":0,"free_procs":1,"total_procs":8,"jobs":[[0,60`, "expected , or ] at byte 53"}, // unclosed row
		{"truncated batch", `{"states":[{"now":0,"jobs":[[0,60,2]]}`, "expected , or ] at byte 38"},
		{"string value", `{"now":"zero","jobs":[[0,60,2]]}`, "expected a number at byte 7"},
		{"escaped key", `{"n\ow":0}`, "string escape at byte 3"},
		{"empty batch", `{"states":[]}`, `empty "states" at byte 1`},
		{"unknown key", `{"nope":1}`, `unknown key "nope" at byte 1`},
		{"object job row", `{"jobs":[{"submit_time":0}]}`, "object-form job row at byte 9"},
		{"six-field job row", `{"jobs":[[0,60,2,1,7,9]]}`, "job row of more than 5 values at byte 21"},
		{"trailing garbage", `{"now":0,"jobs":[[0,60,2]]}x`, "data after the request at byte 27"},
		{"boolean typo", `{"scores":ture,"jobs":[[0,60,2]]}`, "expected true or false at byte 10"},
	}
	for _, tc := range bail {
		t.Run(tc.name, func(t *testing.T) {
			if err := (&reqBuf{}).parseDecide([]byte(tc.body)); err == nil || err.Error() != tc.want {
				t.Fatalf("parseDecide(%q) = %v, want %q", tc.body, err, tc.want)
			}
		})
	}
}

// TestRefusedConstructs: every construct outside the wire format gets a 400
// from /v1/decide, /place and /migrate alike, and its error names the
// construct and the byte offset where it starts.
func TestRefusedConstructs(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Migrate:    true,
		PolicyName: "SJF",
		Shards:     []ShardConfig{{Name: "a", Procs: 8, PolicyName: "SJF"}},
	})
	state := func(extra string) string { return `"now":0,"free_procs":4,"total_procs":8` + extra }
	decide := func(extra string) string { return `{` + state(extra) + `}` }
	place := func(top, cluster string) string {
		return `{"job":[0,60,2]` + top + `,"clusters":[{"name":"a",` + state(cluster) + `}]}`
	}
	const jobs = `,"jobs":[[0,60,2]]`
	cases := []struct {
		what, mark    string // the construct named, found at the last mark
		decide, place string // "" skips the endpoint(s)
	}{
		{"string escape", `\`, `{"n\u006fw":0` + jobs + `}`, place(``, jobs+`,"n\u0061me":"a"`)},
		{"non-ASCII byte", "é", `{"nowé":0` + jobs + `}`, place(`,"client":"é"`, jobs)},
		{"object-form job row", `{"sub`, decide(`,"jobs":[{"submit_time":0,"requested_time":60,"requested_procs":2}]`),
			`{"job":{"submit_time":0,"requested_time":60,"requested_procs":2},"clusters":[{"name":"a",` + state(jobs) + `}]}`},
		{"object-form completed row", `{"user_id"`, "", place(``, jobs+`,"completed":[{"user_id":3,"wait":10,"run_time":600}]`)},
		{`unknown key "trace_id"`, `"trace_id"`, decide(jobs + `,"trace_id":"x"`), place(`,"trace_id":"x"`, jobs)},
		{`unknown key "name"`, `"name"`, decide(jobs + `,"name":"a"`), ""},
		{`unknown key "running_work"`, `"running_work"`, decide(jobs + `,"running_work":0`), ""},
		{`unknown key "completed"`, `"completed"`, decide(jobs + `,"completed":[]`), ""},
		{`unknown key "states"`, `"states"`, decide(jobs + `,"states":[]`), ""},
		{"null", `null`, decide(jobs + `,"queue_len":null`), place(``, jobs+`,"running_work":null`)},
		{`repeated key "jobs"`, `"jobs"`, decide(jobs + jobs), place(``, jobs+jobs)},
		{`repeated key "completed"`, `"completed"`, "", place(``, jobs+`,"completed":[[3,10,600]],"completed":[]`)},
		{`repeated key "clusters"`, `"clusters"`, "", `{"job":[0,60,2],"clusters":[],"clusters":[]}`},
		{`repeated key "states"`, `"states"`, `{"states":[` + decide(jobs) + `],"states":[` + decide(jobs) + `]}`, ""},
		{`case-folded key "Jobs"`, `"Jobs"`, decide(`,"Jobs":[[0,60,2]]`), place(``, `,"Jobs":[[0,60,2]]`)},
		{`case-folded key "Clusters"`, `"Clusters"`, "", `{"job":[0,60,2],"Clusters":[]}`},
	}
	for _, tc := range cases {
		bodies := map[string]string{}
		if tc.decide != "" {
			bodies["/v1/decide"] = tc.decide
		}
		if tc.place != "" {
			bodies["/place"] = tc.place
			bodies["/migrate"] = `{"from":"a",` + tc.place[1:]
		}
		for path, body := range bodies {
			want := fmt.Sprintf("serve: bad %s request: %s at byte %d", path, tc.what, strings.LastIndex(body, tc.mark))
			code, out := postJSON(t, ts.URL+path, []byte(body))
			var resp struct{ Error string }
			if err := json.Unmarshal(out, &resp); err != nil || code != http.StatusBadRequest || resp.Error != want {
				t.Errorf("%s %s:\n got %d %s\nwant 400 %q", path, body, code, out, want)
			}
		}
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
			if err := rb.parseDecide([]byte(tc.body)); err != nil {
				t.Fatalf("parseDecide(%q) = %v, want success", tc.body, err)
			}
			if len(rb.states) != tc.states || len(rb.arena) != tc.jobs {
				t.Fatalf("parsed %d states / %d jobs, want %d / %d",
					len(rb.states), len(rb.arena), tc.states, tc.jobs)
			}
		})
	}
}

// TestDecideNegativePaths drives the same failure classes end-to-end:
// whichever check stops a body (the scanner, validation, size caps), the
// endpoint must answer 4xx — never 200, never a hang or panic.
func TestDecideNegativePaths(t *testing.T) {
	_, ts := newTestServer(t, Config{PolicyName: "SJF"})
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
		{"oversized queue (states cap)", oversizedStates(t, maxStatesPerRequest+1), 400},
		{"oversized body (byte cap)", bytes.Repeat([]byte("x"), maxBodyBytes+1), 413},
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
// grammar and integer tokens for int fields, so 1.5 free processors are
// not read as 1, nor 1e30 as MinInt64.
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
		if rb := (&reqBuf{}); rb.parseDecide([]byte(`{`+state+`}`)) == nil {
			t.Errorf("scanner accepted {%s}", state)
		}
		for path, body := range map[string]string{
			"/v1/decide": `{` + state + `}`,
			"/place":     `{"job":[0,60,2],"clusters":[{"name":"a",` + state + `}]}`,
		} {
			if code, out := postJSON(t, ts.URL+path, []byte(body)); code != 400 || !bytes.Contains(out, []byte("bad ")) {
				t.Errorf("%s %s: %d %s, want a 400", path, body, code, out)
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
