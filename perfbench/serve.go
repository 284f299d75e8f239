package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/campaign"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/shrecd"
	"repro/internal/sim"
	"repro/internal/workload"
)

// serveKey is one POST /simulate request body.
type serveKey struct{ Machine, Benchmark string }

func (k serveKey) String() string { return k.Machine + "|" + k.Benchmark }

// serveKeys is the request universe in popularity order: every
// detection mode at every sweep X scale, on every workload, shuffled
// once with a fixed seed so popularity does not follow the catalog
// order. The run's seed draws from it; it never reorders it.
func serveKeys() ([]serveKey, error) {
	var keys []serveKey
	for _, m := range detectionModes {
		base, err := config.ByName(m.Spec)
		if err != nil {
			return nil, err
		}
		for _, x := range sweepXScales {
			spec := base.Spec()
			if x != 1 {
				spec = base.WithXScale(x).Spec()
			}
			for _, p := range workload.All() {
				keys = append(keys, serveKey{spec, p.Name})
			}
		}
	}
	r := rand.New(rand.NewSource(20041204))
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys, nil
}

// zipfS is the skew of the request key draw: after the warm-up a few
// requests in a hundred ask for a key not served before, so cold
// simulations keep arriving among the hits for the whole run.
const zipfS = 2.0

// goodLatency is the latency limit of goodput: a /simulate reply later
// than this after its scheduled send time is a miss.
const goodLatency = 250 * time.Millisecond

// serveJob is the campaign every job of the serve stream runs. Jobs of
// one kind keep job_p50_s a latency of one operation, not a mix.
var serveJob = campaignConfig{"shrec", "crafty", ""}

// serveJobSpec is the j-th campaign job of input variant v. Every job
// differs in seed, so none joins an earlier job on the server.
func serveJobSpec(sc scale, v, j int) campaign.Spec {
	cc := serveJob
	return campaign.Spec{Machine: cc.Machine, Benchmark: cc.Benchmark,
		Trials: sc.JobTrials, FaultRate: campaignRate, MeasureInstrs: sc.JobMeasure,
		Seed: rng.New(uint64(v) + 101).Fork(uint64(j) + 1).Uint64()}
}

// reqFlags collects what the transport saw across every attempt of one
// logical request, Remote's retries included.
type reqFlags struct {
	shed, server, other, neterr atomic.Uint64
}

type flagsKey struct{}

// countingTransport classifies every HTTP attempt, so a shed or failed
// attempt counts against its request even when a retry later succeeds.
type countingTransport struct {
	base                        http.RoundTripper
	shed, server, other, neterr atomic.Uint64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f, _ := req.Context().Value(flagsKey{}).(*reqFlags)
	if f == nil {
		f = &reqFlags{}
	}
	resp, err := t.base.RoundTrip(req)
	switch {
	case err != nil:
		t.neterr.Add(1)
		f.neterr.Add(1)
	case resp.StatusCode == http.StatusTooManyRequests:
		t.shed.Add(1)
		f.shed.Add(1)
	case resp.StatusCode >= 500:
		t.server.Add(1)
		f.server.Add(1)
	case resp.StatusCode >= 300:
		t.other.Add(1)
		f.other.Add(1)
	}
	return resp, err
}

// serveBody runs shrecd in-process behind a loopback listener and drives
// it with repro.Remote: an open loop of POST /simulate at a fixed rate,
// plus a small campaign job on a fixed period. Jobs are small and
// frequent because larger, rarer ones made request latency depend on
// how many cold requests happened to queue behind a job's trials.
type serveBody struct {
	env    *env
	keys   []serveKey
	opt    sim.Options
	srv    *shrecd.Server
	hs     *http.Server
	ln     net.Listener
	served chan struct{}
	tp     *countingTransport
	remote *repro.Remote
	base   string
}

func (b *serveBody) setup() error {
	keys, err := serveKeys()
	if err != nil {
		return err
	}
	b.keys = keys
	b.opt = sim.Options{WarmupInstrs: b.env.sc.ServeWarmup, MeasureInstrs: b.env.sc.ServeMeasure,
		Parallelism: b.env.nproc}
	b.srv = shrecd.NewWith(shrecd.Config{DefaultOptions: b.opt, MaxConcurrent: 256}, sim.NewSuite(b.opt))
	if b.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		b.srv.Close()
		return err
	}
	b.hs = &http.Server{Handler: b.srv.Handler()}
	b.served = make(chan struct{})
	go func() {
		defer close(b.served)
		_ = b.hs.Serve(b.ln)
	}()
	b.base = "http://" + b.ln.Addr().String()
	b.tp = &countingTransport{base: &http.Transport{
		MaxConnsPerHost: b.env.nproc, MaxIdleConnsPerHost: b.env.nproc, IdleConnTimeout: time.Minute}}
	b.remote, err = repro.NewRemote(b.base,
		repro.WithHTTPClient(&http.Client{Transport: b.tp, Timeout: 20 * time.Second}),
		repro.WithRetryPolicy(3, 50*time.Millisecond, time.Second),
		repro.WithPollInterval(5*time.Millisecond))
	if err != nil {
		b.close()
		return err
	}
	// Open the connections and touch every handler path once before the
	// clock starts.
	ctx := context.Background()
	for i := 0; i < b.env.nproc; i++ {
		if _, err := b.remote.Health(ctx); err != nil {
			b.close()
			return err
		}
	}
	return nil
}

func (b *serveBody) close() {
	if b.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = b.hs.Shutdown(ctx)
		cancel()
		<-b.served
		b.hs = nil
	}
	if b.srv != nil {
		b.srv.Close()
		b.srv = nil
	}
	if b.tp != nil {
		b.tp.base.(*http.Transport).CloseIdleConnections()
	}
}

// reqResult is one POST /simulate as the load generator saw it.
type reqResult struct {
	key     serveKey
	late    time.Duration // dispatch time minus due time
	lat     time.Duration // completion minus due time
	svc     time.Duration // completion minus dispatch
	hit     bool          // an earlier request for the key had completed
	err     error
	flagged bool // some attempt was shed, failed or refused
	good    bool // succeeded, checked out, and within goodLatency
	stats   json.RawMessage
}

// jobResult is one campaign job of the serve stream.
type jobResult struct {
	spec   campaign.Spec
	due    time.Duration // scheduled start, from the window's start
	lat    time.Duration
	err    error
	report json.RawMessage
	phases map[string]float64
}

// serveStats is what one serve run measured.
type serveStats struct {
	window    time.Duration // the open loop's scheduled span
	reqs      []reqResult
	jobs      []jobResult
	maxInfl   int64
	shed      float64
	retries   uint64
	stageSums map[string]float64
	failed    int
	problems  []string
	tpShed    uint64
	tpServer  uint64
	tpOther   uint64
	tpNeterr  uint64
	exhausted uint64
}

// run drives the server for d, then waits for every request and job in
// flight and checks every reply.
func (b *serveBody) run(ctx context.Context, d time.Duration, tr *tracer) serveStats {
	sc := b.env.sc
	n := int(sc.ServeRate * d.Seconds())
	r := rand.New(rand.NewSource(b.env.seed))
	z := rand.NewZipf(r, zipfS, 1, uint64(len(b.keys)-1))
	draws := make([]int, n)
	for i := range draws {
		draws[i] = int(z.Uint64())
	}

	var (
		st       serveStats
		mu       sync.Mutex
		wg       sync.WaitGroup
		inflight atomic.Int64
		doneAt   = map[serveKey]time.Time{}
	)
	st.reqs = make([]reqResult, n)
	start := time.Now().Add(10 * time.Millisecond)
	stop := start.Add(d)

	// The job stream: one campaign every JobEvery until the window ends.
	jobsDone := make(chan struct{})
	go func() {
		defer close(jobsDone)
		var jwg sync.WaitGroup
		for j := 0; ; j++ {
			due := start.Add(time.Duration(j) * sc.JobEvery)
			if !due.Before(stop) {
				break
			}
			time.Sleep(time.Until(due))
			jwg.Add(1)
			go func(j int) {
				defer jwg.Done()
				_, end := tr.begin("shrecd.campaign", fmt.Sprintf("job-%d", j), 0)
				res := b.job(ctx, serveJobSpec(sc, b.env.variant, j))
				res.due = due.Sub(start)
				end()
				mu.Lock()
				st.jobs = append(st.jobs, res)
				mu.Unlock()
			}(j)
		}
		jwg.Wait()
	}()

	// The open loop: request i is due at start + i/rate, whatever the
	// server is doing.
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / sc.ServeRate * 1e9))
		time.Sleep(time.Until(due))
		key := b.keys[draws[i]]
		sent := time.Now()
		mu.Lock()
		t, ok := doneAt[key]
		hit := ok && t.Before(sent)
		mu.Unlock()
		if v := inflight.Add(1); v > st.maxInfl {
			st.maxInfl = v
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer inflight.Add(-1)
			f := &reqFlags{}
			_, endSpan := tr.begin("shrecd.simulate", fmt.Sprintf("req-%d", i), 0)
			res, err := b.remote.Simulate(context.WithValue(ctx, flagsKey{}, f), key.Machine, key.Benchmark)
			endSpan()
			end := time.Now()
			rr := reqResult{key: key, late: sent.Sub(due), lat: end.Sub(due), svc: end.Sub(sent),
				hit: hit, err: err, stats: res.Stats,
				flagged: f.shed.Load()+f.server.Load()+f.other.Load()+f.neterr.Load() > 0}
			mu.Lock()
			st.reqs[i] = rr
			if err == nil {
				if _, ok := doneAt[key]; !ok {
					doneAt[key] = end
				}
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	<-jobsDone
	st.window = d

	st.retries = b.remote.Metrics().Retries
	st.exhausted = b.remote.Metrics().Exhausted
	st.tpShed, st.tpServer, st.tpOther, st.tpNeterr = b.tp.shed.Load(), b.tp.server.Load(), b.tp.other.Load(), b.tp.neterr.Load()
	if m, err := b.scrape(ctx); err == nil {
		st.shed = m["shrecd_shed_requests_total"]
		st.stageSums = map[string]float64{}
		for k, v := range m {
			if stage, ok := strings.CutPrefix(k, `sim_stage_seconds_sum{stage="`); ok {
				st.stageSums[strings.TrimSuffix(stage, `"}`)] = v
			}
		}
	} else {
		st.problems = append(st.problems, fmt.Sprintf("scraping /metrics: %v", err))
	}
	b.check(ctx, &st)
	return st
}

// job submits one campaign through Remote and waits for it to finish.
func (b *serveBody) job(ctx context.Context, spec campaign.Spec) jobResult {
	res := jobResult{spec: spec}
	t0 := time.Now()
	j, err := b.remote.StartCampaign(ctx, spec)
	if err == nil {
		var st repro.RemoteJobStatus
		st, err = b.remote.WaitCampaign(ctx, j.ID)
		res.report = st.Report
	}
	res.lat = time.Since(t0)
	res.err = err
	if err == nil {
		res.phases, res.err = b.phases(ctx, j.ID)
	}
	return res
}

// phases reads a finished job's phase breakdown from its status JSON,
// which Remote's typed status does not carry.
func (b *serveBody) phases(ctx context.Context, id string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/campaigns/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := b.tp.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st struct {
		Phases []struct {
			Phase   string  `json:"phase"`
			Seconds float64 `json:"seconds"`
		} `json:"phases"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, p := range st.Phases {
		out[p.Phase] = p.Seconds
	}
	return out, nil
}

// scrape reads the unlabeled and labeled samples of GET /metrics.
func (b *serveBody) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := b.tp.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// check compares every reply with the recorded Stats digest of its key
// and with the server Suite's own result, and every job's report with
// the same campaign run in-process. It fills the goodput and failure
// counts.
func (b *serveBody) check(ctx context.Context, st *serveStats) {
	sc := b.env.sc
	suite := b.srv.Sims()
	for i := range st.reqs {
		rr := &st.reqs[i]
		bad := rr.err != nil || rr.flagged
		if rr.err != nil {
			st.problems = append(st.problems, fmt.Sprintf("request %d (%s): %v", i, rr.key, rr.err))
		}
		if rr.err == nil {
			var got core.Stats
			if err := json.Unmarshal(rr.stats, &got); err != nil {
				bad = true
				st.problems = append(st.problems, fmt.Sprintf("request %d (%s): decoding stats: %v", i, rr.key, err))
			} else if d, want := digestJSON(got), b.env.golden.serve(sc.Name, rr.key.String()); d != want {
				bad = true
				st.problems = append(st.problems, fmt.Sprintf("request %d (%s): stats digest %s, recorded %s", i, rr.key, d, want))
			} else if ref, ok := b.lookup(suite, rr.key); !ok || digestJSON(ref.Stats) != d {
				bad = true
				st.problems = append(st.problems, fmt.Sprintf("request %d (%s): reply differs from the server Suite's result", i, rr.key))
			}
		}
		if bad {
			st.failed++
		}
		rr.good = !bad && rr.lat <= goodLatency
	}
	for _, j := range st.jobs {
		if j.err != nil {
			st.failed++
			st.problems = append(st.problems, fmt.Sprintf("job %s/%s: %v", j.spec.Machine, j.spec.Benchmark, j.err))
			continue
		}
		ref, err := campaign.New(sim.NewSuite(b.opt)).Run(ctx, j.spec, nil)
		if err != nil {
			st.failed++
			st.problems = append(st.problems, fmt.Sprintf("job %s/%s reference: %v", j.spec.Machine, j.spec.Benchmark, err))
			continue
		}
		want, _ := json.Marshal(ref.Report())
		if !sameJSON(j.report, want) {
			st.failed++
			st.problems = append(st.problems, fmt.Sprintf("job %s/%s: report differs from the in-process campaign", j.spec.Machine, j.spec.Benchmark))
		}
	}
}

// lookup reads the server Suite's cached result for key.
func (b *serveBody) lookup(s *sim.Suite, k serveKey) (sim.Result, bool) {
	m, err := config.ByName(k.Machine)
	if err != nil {
		return sim.Result{}, false
	}
	p, err := workload.ByName(k.Benchmark)
	if err != nil {
		return sim.Result{}, false
	}
	return s.Lookup(m, p)
}

// sameJSON compares two JSON documents ignoring insignificant space.
func sameJSON(a, b []byte) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// serveWarmShare is the leading share of the serve window that primes
// the server's empty cache: its requests and jobs are checked like the
// rest but not timed, so the figures describe the steady state rather
// than the first second's pile-up of cold simulations.
const serveWarmShare = 0.2

// segmentSeconds is the length of one latency segment of the serve
// window.
const segmentSeconds = 2.0

// report appends the serve figures to out. Latencies count from each
// request's scheduled send time. The median is taken per segment of the
// window and then over segments, so one burst of host noise moves one
// segment. The tail and the job latency are reported but not gated:
// both follow the worst stalls of a shared two-core host too closely to
// hold a bound from run to run.
func (st *serveStats) report(sc scale, out *metrics) {
	warm := int(serveWarmShare * float64(len(st.reqs)))
	reqs := st.reqs[warm:]
	per := max(int(sc.ServeRate*segmentSeconds), 1)
	segs := make([][]float64, max(len(reqs)/per, 1))
	good, hits := 0, 0
	first := time.Duration(float64(warm) / sc.ServeRate * float64(time.Second))
	last := first
	for i, r := range reqs {
		if r.err == nil {
			k := min(i/per, len(segs)-1)
			segs[k] = append(segs[k], float64(r.lat.Nanoseconds())/1e6)
			due := time.Duration(float64(warm+i) / sc.ServeRate * float64(time.Second))
			last = max(last, due+r.lat)
		}
		if r.good {
			good++
		}
		if r.hit {
			hits++
		}
	}
	p50s := make([]float64, len(segs))
	for i, seg := range segs {
		p50s[i] = median(seg)
	}
	tl, jobs := st.tailAndJobs()
	out.add("req_p50_ms", median(p50s), "ms", fmt.Sprintf("median over %d segments of %gs; n=%d timed requests, %d repeat keys",
		len(segs), segmentSeconds, len(reqs), hits))
	out.add("goodput_rps", float64(good)/(last-first).Seconds(), "1/s",
		fmt.Sprintf("%d of %d within %v over %.2fs; %d shed, %d 5xx, %d other non-2xx, %d network errors, %d exhausted, %d retries",
			good, len(reqs), goodLatency, (last-first).Seconds(), st.tpShed, st.tpServer, st.tpOther, st.tpNeterr, st.exhausted, st.retries))
	out.info("req_tail_ms", tl.Value, "ms", fmt.Sprintf("p%g, n=%d, %d beyond", tl.Q, tl.N, tl.Beyond))
	out.info("job_p50_s", median(jobs), "s", fmt.Sprintf("n=%d timed jobs", len(jobs)))
}

// tailAndJobs returns the tail latency (ms) of the timed requests and
// the latencies (s) of the timed jobs.
func (st *serveStats) tailAndJobs() (tail, []float64) {
	var lat []float64
	for _, r := range st.reqs[int(serveWarmShare*float64(len(st.reqs))):] {
		if r.err == nil {
			lat = append(lat, float64(r.lat.Nanoseconds())/1e6)
		}
	}
	warmD := time.Duration(serveWarmShare * float64(st.window))
	var jobs []float64
	for _, j := range st.jobs {
		if j.err == nil && j.due >= warmD {
			jobs = append(jobs, j.lat.Seconds())
		}
	}
	return tailOf(lat), jobs
}
