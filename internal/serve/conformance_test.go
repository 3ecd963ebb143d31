package serve

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"

	"rlsched/internal/fleet"
	"rlsched/internal/job"
	"rlsched/internal/nn"
	"rlsched/internal/obs"
	"rlsched/internal/sched"
	"rlsched/internal/sim"
	"rlsched/internal/trace"
)

// Sim-to-serve conformance: the simulator and the daemon must give the same
// answer to the same question. A seeded fleet.Fleet.Run is recorded — every
// arrival placement and every migration-sweep probe, with a deep copy of
// the job and the candidates the router saw — and each question is replayed
// over HTTP against a daemon running the same pipeline. The daemon must
// name the same cluster and return the same move verdict and reason.
// Editing either side's gate or scorer alone fails this test.

// simQuestion is one recorded router call. probe is nil for an arrival
// (pick is what Place returned) and the sweep's recorded outcome for a
// migration probe (the job was withdrawn from probe.From before scoring).
type simQuestion struct {
	job   job.Job
	cands []fleet.Candidate
	pick  int
	probe *obs.MigrationProbe
}

// recordingRouter answers with the wrapped pipeline and keeps every
// question. It is also the run's obs.Recorder: tryMove emits exactly one
// MigrationProbe right after its PlaceScored call, which pairs the verdict
// with the question. It deliberately implements neither ExplainingRouter
// nor ClockFree, so recorded arrivals go through Place and every candidate
// carries the current clock.
type recordingRouter struct {
	obs.Nop
	p     *fleet.Pipeline
	asked []simQuestion
}

func (r *recordingRouter) Name() string { return r.p.Name() }

func (r *recordingRouter) record(j *job.Job, cands []*fleet.Candidate, pick int) {
	q := simQuestion{job: *j, pick: pick, cands: make([]fleet.Candidate, len(cands))}
	for i, c := range cands {
		q.cands[i] = *c
		q.cands[i].Visible = make([]*job.Job, len(c.Visible))
		for k, v := range c.Visible {
			cp := *v
			q.cands[i].Visible[k] = &cp
		}
	}
	r.asked = append(r.asked, q)
}

func (r *recordingRouter) Place(j *job.Job, cands []*fleet.Candidate) int {
	k := r.p.Place(j, cands)
	r.record(j, cands, k)
	return k
}

func (r *recordingRouter) PlaceScored(j *job.Job, cands []*fleet.Candidate, scores []float64) int {
	k := r.p.PlaceScored(j, cands, scores)
	r.record(j, cands, k)
	return k
}

func (r *recordingRouter) Migration(p *obs.MigrationProbe) {
	if p.To < 0 && p.Reason != obs.ReasonInfeasible {
		return // cooldown / move-cap skip: the router was never asked
	}
	cp := *p
	r.asked[len(r.asked)-1].probe = &cp
}

// wireCluster is one recorded candidate as a posted cluster state.
type wireCluster struct {
	Name        string      `json:"name"`
	Now         float64     `json:"now"`
	FreeProcs   int         `json:"free_procs"`
	TotalProcs  int         `json:"total_procs"`
	QueueLen    int         `json:"queue_len"`
	RunningWork float64     `json:"running_work"`
	Jobs        [][]float64 `json:"jobs"`
}

func wireRow(j *job.Job) []float64 {
	return []float64{j.SubmitTime, j.RequestedTime, float64(j.RequestedProcs), float64(j.UserID), float64(j.ID)}
}

// body encodes the question as a /place (from == "") or /migrate request.
func (q *simQuestion) body(t *testing.T, from string) []byte {
	t.Helper()
	req := struct {
		Job      []float64     `json:"job"`
		From     string        `json:"from,omitempty"`
		Clusters []wireCluster `json:"clusters"`
	}{Job: wireRow(&q.job), From: from}
	for i := range q.cands {
		c := &q.cands[i]
		wc := wireCluster{
			Name: c.Name, Now: c.Now,
			FreeProcs: c.View.FreeProcs, TotalProcs: c.View.TotalProcs,
			QueueLen: c.Pending, RunningWork: c.RunningWork,
			Jobs: make([][]float64, len(c.Visible)),
		}
		for k, v := range c.Visible {
			wc.Jobs[k] = wireRow(v)
		}
		req.Clusters = append(req.Clusters, wc)
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

var conformanceProcs = []int{256, 128, 64, 64}
var conformanceNames = []string{"large", "mid", "small-a", "small-b"}

// conformanceRun records one seeded fleet run with hysteresis migration.
// MaxObserve exceeds the stream, so the visible queue a member posts is its
// whole backlog — the daemon derives pending work from the posted jobs.
func conformanceRun(t *testing.T, p *fleet.Pipeline, interval float64) *recordingRouter {
	t.Helper()
	const n = 260
	var members []fleet.MemberConfig
	for i, procs := range conformanceProcs {
		members = append(members, fleet.MemberConfig{
			Name:      conformanceNames[i],
			Sim:       sim.Config{Processors: procs, Backfill: true, MaxObserve: 2 * n},
			Scheduler: sched.SJF(),
		})
	}
	rec := &recordingRouter{p: p}
	f, err := fleet.New(members, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.EnableMigration(fleet.HysteresisMigration(interval)); err != nil {
		t.Fatal(err)
	}
	f.SetRecorder(rec)
	tr := trace.Preset("Lublin-1", n+64, 21)
	stream := tr.SampleWindow(rand.New(rand.NewSource(21)), n)
	// Compress arrivals so the fleet runs hot: backlogs build, sweeps find
	// stranded jobs, and the load scorers see busy clusters.
	t0 := stream[0].SubmitTime
	for _, j := range stream {
		j.SubmitTime = t0 + (j.SubmitTime-t0)/6
	}
	if _, err := f.Run(stream); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestSimServeConformance(t *testing.T) {
	net := nn.NewKernelNet(rand.New(rand.NewSource(9)), 32, sim.JobFeatures, nil)
	cases := []struct {
		name   string
		router string
		sim    func() *fleet.Pipeline
		engine func() Engine
	}{
		{"binpack", "binpack", fleet.BinpackPipeline,
			func() Engine { return NewHeuristicEngine(sched.SJF()) }},
		{"engine", "engine",
			func() *fleet.Pipeline {
				p, err := fleet.RLPipeline(net)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			func() Engine {
				e, err := NewPolicyEngine(net)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const interval = 300
			rec := conformanceRun(t, tc.sim(), interval)

			mig := fleet.HysteresisMigration(interval)
			cfg := Config{
				PlaceRouter:   tc.router,
				Migrate:       true,
				MigrateMargin: mig.Hysteresis,
			}
			for i, procs := range conformanceProcs {
				cfg.Shards = append(cfg.Shards,
					ShardConfig{Name: conformanceNames[i], Procs: procs, Engine: tc.engine()})
			}
			_, ts := newTestServer(t, cfg)

			arrivals, probes, moves, busy := 0, 0, 0, 0
			reasons := map[string]int{}
			for qi := range rec.asked {
				q := &rec.asked[qi]
				for i := range q.cands {
					if q.cands[i].RunningWork > 0 {
						busy++
						break
					}
				}
				if q.probe == nil {
					arrivals++
					code, out := postJSON(t, ts.URL+"/place", q.body(t, ""))
					if code != http.StatusOK {
						t.Fatalf("question %d: /place %d %s", qi, code, out)
					}
					var resp placeResp
					if err := json.Unmarshal(out, &resp); err != nil {
						t.Fatal(err)
					}
					if want := q.cands[q.pick].Name; resp.Cluster != want || resp.Shard != q.pick {
						t.Fatalf("question %d (job %d): simulator placed on %s, daemon on %s: %s",
							qi, q.job.ID, want, resp.Cluster, out)
					}
					continue
				}
				probes++
				reasons[q.probe.Reason]++
				if q.probe.Moved {
					moves++
				}
				code, out := postJSON(t, ts.URL+"/migrate", q.body(t, q.probe.FromName))
				if code != http.StatusOK {
					t.Fatalf("question %d: /migrate %d %s", qi, code, out)
				}
				var resp struct {
					migrateResp
					Reason string `json:"reason"`
				}
				if err := json.Unmarshal(out, &resp); err != nil {
					t.Fatal(err)
				}
				want := q.probe.FromName
				if q.probe.Moved {
					want = q.probe.ToName
				}
				if resp.Migrate != q.probe.Moved || resp.Reason != q.probe.Reason || resp.Cluster != want {
					t.Fatalf("question %d (job %d): simulator says moved=%t reason=%s cluster=%s, daemon: %s",
						qi, q.job.ID, q.probe.Moved, q.probe.Reason, want, out)
				}
			}
			t.Logf("%s: %d arrivals, %d probes %v, %d moves, %d questions with running work",
				tc.name, arrivals, probes, reasons, moves, busy)
			if arrivals < 200 || moves < 1 || busy == 0 {
				t.Fatalf("run too tame to conform against: %d arrivals, %d moves, %d busy questions",
					arrivals, moves, busy)
			}
		})
	}
}
