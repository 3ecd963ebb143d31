// Command rlservd is the online scheduling-decision daemon: it loads a
// trained model snapshot (or a named heuristic) and serves scheduling
// decisions over an HTTP JSON API. Every request runs its own
// policy-network forward pass on its handler goroutine, at most -workers
// of them at a time per engine.
//
// Serve a trained snapshot:
//
//	rlservd -model model.json -addr :9090
//
// Serve a heuristic (any of FCFS, WFP3, UNICEP, SJF, F1, SAF, LJF):
//
//	rlservd -policy SJF -addr :9090
//
// Ask for a decision:
//
//	curl -s localhost:9090/v1/decide -d '{
//	  "now": 0, "free_procs": 96, "total_procs": 128,
//	  "jobs": [[-30, 3600, 4, 0, 1], [-10, 60, 2, 0, 2]]}'
//
// Each job is a compact row [submit_time, requested_time,
// requested_procs, user_id?, id?]; a body outside the wire format (README
// "Wire format") gets a 400 naming the construct and its byte offset.
//
// Hot-swap the model under load (zero dropped requests):
//
//	curl -s -X POST localhost:9090/reload -d '{"model": "model-v2.json"}'
//
// Fleet mode shards one engine per cluster and adds the placement
// endpoint — repeat -shard per member:
//
//	rlservd -shard name=large,procs=256,model=model.json \
//	        -shard name=small,procs=64,policy=SJF
//
//	curl -s localhost:9090/place -d '{
//	  "job": [0, 3600, 96],
//	  "clusters": [{"name": "large", "free_procs": 200, "total_procs": 256, "jobs": []},
//	               {"name": "small", "free_procs": 64,  "total_procs": 64,  "jobs": []}]}'
//
// Per-shard decisions and hot swaps:
//
//	curl -s 'localhost:9090/v1/decide?cluster=small' -d '...'
//	curl -s -X POST localhost:9090/reload -d '{"cluster": "small", "policy": "F1"}'
//
// Each cluster state may also carry "now", "queue_len" (the full backlog
// when longer than "jobs") and "running_work": the committed remaining work
// of its running jobs in seconds·procs (finite, >= 0; default 0), which the
// load-based scorers add to the queued work. /place and /migrate answer
// with the fleet simulator's own placement code (internal/fleet).
//
// With -migrate, POST /migrate asks whether a queued job should move off
// its current cluster (post the states with the job already excluded from
// its own queue). The answer is fleet.MoveVerdict's — the hysteresis margin
// and the start-now gate of the fleet migration controller — and its
// "reason" says why: moved, incumbent-best, hysteresis, not-drained or
// no-feasible:
//
//	curl -s localhost:9090/migrate -d '{
//	  "job": [-600, 3600, 32], "from": "large",
//	  "clusters": [{"name": "large", "free_procs": 0,  "total_procs": 256, "jobs": [[-60,600,16]]},
//	               {"name": "small", "free_procs": 64, "total_procs": 64,  "jobs": []}]}'
//
// With -fair-weight N, /place becomes per-user fairness aware: clusters
// post the jobs they finished as compact rows ("completed": [[user, wait,
// run], ...]; object-form rows get a 400) alongside their queue state,
// the daemon tracks every user's bounded-slowdown share per cluster, and
// the placement pipeline steers deprived users' jobs onto capacity that
// runs them now (and off clusters that historically hurt them). Each
// /place answer reports the job's user state; /metrics gains the
// rlserv_fairness_score view:
//
//	rlservd -shard ... -fair-weight 1
//	curl -s localhost:9090/place -d '{
//	  "job": [0, 3600, 16, 7],
//	  "clusters": [{"name": "large", "free_procs": 200, "total_procs": 256, "jobs": [],
//	                "completed": [[7, 9000, 60], [3, 10, 600]]}]}'
//
// Observe:
//
//	curl -s localhost:9090/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rlsched/internal/serve"
)

// shardFlags parses repeated -shard "name=X,procs=N,model=PATH|policy=NAME"
// values into shard configurations.
type shardFlags []serve.ShardConfig

func (s *shardFlags) String() string { return fmt.Sprintf("%d shards", len(*s)) }

func (s *shardFlags) Set(v string) error {
	var sc serve.ShardConfig
	for _, kv := range strings.Split(v, ",") {
		k, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("shard field %q wants key=value", kv)
		}
		switch k {
		case "name":
			sc.Name = val
		case "procs":
			n, err := strconv.Atoi(val)
			if err != nil {
				return fmt.Errorf("shard procs %q: %w", val, err)
			}
			sc.Procs = n
		case "model":
			sc.ModelPath = val
		case "policy":
			sc.PolicyName = val
		default:
			return fmt.Errorf("unknown shard field %q (name|procs|model|policy)", k)
		}
	}
	*s = append(*s, sc)
	return nil
}

// Connection limits of the daemon's listener. A client that stalls while
// sending a request is cut off instead of pinning its connection forever;
// constants, because no deployment wants a slow-client hole. WriteTimeout
// stays unset: /debug/pprof/profile legitimately writes for tens of
// seconds, and every other handler answers from memory.
const (
	readHeaderTimeout = 5 * time.Second  // request line + headers
	readTimeout       = 30 * time.Second // headers + body (bodies cap at 8 MiB)
	idleTimeout       = 2 * time.Minute  // keep-alive connection between requests
	maxHeaderBytes    = 64 << 10
)

// newHTTPServer wraps the daemon's handler in a listener with the limits
// above.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// options is what the command line configures: the listen address and the
// serve.Config the flags fill in directly.
type options struct {
	addr string
	cfg  serve.Config
}

// registerFlags declares the daemon's whole flag surface on fs. The README
// flag table is held to exactly these names (main_test.go).
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	c := &o.cfg
	fs.StringVar(&c.ModelPath, "model", "", "model snapshot path (rlsched train output)")
	fs.StringVar(&c.PolicyName, "policy", "", "heuristic name instead of a model (FCFS|WFP3|UNICEP|SJF|F1|SAF|LJF)")
	fs.StringVar(&o.addr, "addr", ":9090", "listen address")
	fs.IntVar(&c.Workers, "workers", 0, "engine calls in flight per engine (0 = GOMAXPROCS)")
	fs.Var((*shardFlags)(&c.Shards), "shard",
		"fleet shard spec name=X,procs=N,model=PATH|policy=NAME (repeatable; enables /place)")
	fs.StringVar(&c.PlaceRouter, "place-router", "",
		"fleet placement pipeline: engine (default) | least-loaded | binpack")
	fs.BoolVar(&c.Migrate, "migrate", false,
		"fleet mode: enable the POST /migrate re-placement endpoint and its /metrics counters")
	fs.Float64Var(&c.MigrateMargin, "migrate-margin", 0.25,
		"hysteresis margin a recommended move must clear (normalized score scale)")
	fs.Float64Var(&c.FairWeight, "fair-weight", 0,
		"fleet mode: weight of the per-user fairness plugin in the /place pipeline (0 disables); "+
			"clusters feed it by posting completed jobs with their /place states")
	fs.Float64Var(&c.FairWindow, "fair-window", 0,
		"fleet mode: decay the fairness tracker's shares over roughly this many completions "+
			"(0 = full history; needs -fair-weight)")
	fs.BoolVar(&c.Pprof, "pprof", false,
		"mount the net/http/pprof profiling handlers under /debug/pprof/")
	fs.IntVar(&c.DecisionLog, "decision-log", 0,
		"fleet mode: /debug/decisions ring size (0 = default 256, negative disables)")
	fs.StringVar(&c.CheckpointDir, "checkpoint-dir", "",
		"durability directory for the fairness tracker (snapshot + WAL, restored on "+
			"restart; needs -fair-weight)")
	fs.DurationVar(&c.CheckpointInterval, "checkpoint-interval", 30*time.Second,
		"period between fairness snapshots (0 disables the loop; the WAL still "+
			"persists every batch)")
	fs.IntVar(&c.DecisionCache, "decision-cache", 0,
		"entries in the exact-match decision cache in front of the engines "+
			"(0 disables; invalidated on /reload)")
	return o
}

func main() {
	opts := registerFlags(flag.CommandLine)
	flag.Parse()

	srv, err := serve.NewServer(opts.cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rlservd: %v\n", err)
		os.Exit(1)
	}
	defer srv.Close()

	httpSrv := newHTTPServer(opts.addr, srv.Handler())
	done := make(chan error, 1)
	go func() { done <- httpSrv.ListenAndServe() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if names := srv.Shards(); len(names) > 0 {
		fmt.Printf("rlservd: fleet mode, shards %v, serving policy %q on %s\n",
			names, srv.Engine().Name(), opts.addr)
	} else {
		fmt.Printf("rlservd: serving policy %q on %s\n", srv.Engine().Name(), opts.addr)
	}

	select {
	case err := <-done:
		fmt.Fprintf(os.Stderr, "rlservd: %v\n", err)
		os.Exit(1)
	case <-sig:
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
		fmt.Println("rlservd: shut down")
	}
}
