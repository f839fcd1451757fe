package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bioperf5/internal/cpu"
	"bioperf5/internal/harness"
	"bioperf5/internal/kernels"
	"bioperf5/internal/sched"
	"bioperf5/internal/server"
	"bioperf5/internal/telemetry"
	"bioperf5/internal/trace"
	"bioperf5/internal/workload"
)

// service is an in-process bioperf5 server on the loopback: one fresh
// engine and trace store behind one listener, plus a second listener
// with span tracing on the same engine when the run is traced.
type service struct {
	eng    *sched.Engine
	urls   [2]string // [0] untraced, [1] traced (the same listener when untraced)
	https  []*http.Server
	done   sync.WaitGroup
	client *http.Client
}

func startService(tr *telemetry.Tracer) (*service, error) {
	s := &service{
		// The defaults of `bioperf5 serve`: 2 retries, a 2-minute
		// request deadline, and the default trace budget.
		eng:    sched.New(sched.Options{Retries: 2}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: runtime.NumCPU()}},
	}
	opts := server.Options{Engine: s.eng, DefaultTimeout: 2 * time.Minute}
	handlers := []http.Handler{server.New(opts)}
	if tr != nil {
		opts.Tracer = tr
		handlers = append(handlers, server.New(opts))
	}
	for i, h := range handlers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		hs := &http.Server{Handler: h}
		s.https = append(s.https, hs)
		s.done.Add(1)
		go func() {
			defer s.done.Done()
			hs.Serve(ln) // returns ErrServerClosed once close shuts it down
		}()
		s.urls[i] = "http://" + ln.Addr().String()
	}
	if tr == nil {
		s.urls[1] = s.urls[0]
	}
	for _, u := range s.urls {
		resp, err := s.client.Get(u + "/readyz")
		if err != nil {
			s.close()
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			s.close()
			return nil, fmt.Errorf("server not ready: %s", resp.Status)
		}
	}
	return s, nil
}

// close stops the listeners, waits for their goroutines and drains the
// engine.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, hs := range s.https {
		hs.Shutdown(ctx) // waits for in-flight handlers; none remain
	}
	s.done.Wait()
	s.client.CloseIdleConnections()
	s.eng.Drain(ctx)
}

// Request classes of serve-cells.
type reqClass int

const (
	classCached reqClass = iota // exact repeat of a served cell: result-cache hit
	classReplay                 // new timing config on a captured trace: replay only
	classCold                   // unseen input seed: capture plus one replay
)

var classNames = [...]string{"cached", "replay", "cold"}

// A block is the unit serve-cells issues: per application one cold
// cell and replayPerApp replays, plus cachedPerBlock repeats, shuffled.
// Blocks run one after another, so every repeat or replay refers to a
// cell or trace an earlier block finished, and each block is one
// iteration with its own wall and CPU time.
//
// The shares — two thirds cached, two ninths replay, one ninth cold —
// are not taken from any client of the server (the repository's only
// client, the cluster coordinator, posts sweep shards to
// /v1/cells:batch).  They were chosen for a steady statistic: latency
// is multimodal (by class and by application), so p50 is placed well
// inside the cached class, the memo path, and the tail (see
// groupBlocks) inside the slowest application's cold cells, never on a
// boundary between modes where the seed would move it.  Each class's
// own p50 is reported beside them.
const (
	replayPerApp   = 2
	cachedPerBlock = 24
	recentTraces   = 4 // replays use one of an app's last captures
	blockSize      = 4*(1+replayPerApp) + cachedPerBlock
)

var serveVariants = []string{kernels.Branchy.String(), kernels.Combination.String()}

type cellReq struct {
	class reqClass
	req   server.CellRequest
	ref   *servedCell // classCached: the cell repeated
}

type servedCell struct {
	req  server.CellRequest
	resp *server.CellResponse
}

type capturedTrace struct {
	app, variant string
	seed         int64
	used         map[string]bool // timing configs already served on it
}

// mixer generates the seeded request sequence.  It depends only on the
// seed and on what earlier blocks requested, never on timing.
type mixer struct {
	rng      *rand.Rand
	nextSeed int64
	served   []*servedCell
	traces   map[string][]*capturedTrace
}

func newMixer(seed int64, kseeds []int64) *mixer {
	return &mixer{
		rng:      rand.New(rand.NewSource(seed)),
		nextSeed: kseeds[0] + 1,
		traces:   map[string][]*capturedTrace{},
	}
}

func configKey(fxus, btac int, pred string) string {
	return fmt.Sprintf("%d/%d/%s", fxus, btac, pred)
}

// The cold default configuration: 2 FXUs, no BTAC, default predictor.
var coldConfig = configKey(2, 0, "tournament")

// warmup is the untimed first block: every application under both
// variants at the first kernel seed.
func (m *mixer) warmup(seed int64) []*cellReq {
	var out []*cellReq
	for _, app := range workload.Apps() {
		for _, v := range serveVariants {
			out = append(out, &cellReq{class: classCold,
				req: server.CellRequest{App: app, Variant: v, Seeds: []int64{seed}}})
		}
	}
	return out
}

// coldRound is one cold cell per application, each at an unseen seed
// under a variant drawn from the seed.
func (m *mixer) coldRound() []*cellReq {
	var out []*cellReq
	for _, app := range workload.Apps() {
		v := serveVariants[m.rng.Intn(len(serveVariants))]
		out = append(out, &cellReq{class: classCold,
			req: server.CellRequest{App: app, Variant: v, Seeds: []int64{m.nextSeed}}})
		m.nextSeed++
	}
	return out
}

// block generates the next timed block.
func (m *mixer) block() ([]*cellReq, error) {
	apps := workload.Apps()
	out := m.coldRound()
	// Each predictor serves replayPerApp of the replays, paired with
	// applications at random.
	var preds []string
	for i := 0; i < replayPerApp; i++ {
		preds = append(preds, predictorKinds...)
	}
	m.rng.Shuffle(len(preds), func(a, b int) { preds[a], preds[b] = preds[b], preds[a] })
	for i, pred := range preds {
		req, err := m.replay(apps[i/replayPerApp], pred)
		if err != nil {
			return nil, err
		}
		out = append(out, &cellReq{class: classReplay, req: req})
	}
	for i := 0; i < cachedPerBlock; i++ {
		c := m.served[m.rng.Intn(len(m.served))]
		out = append(out, &cellReq{class: classCached, req: c.req, ref: c})
	}
	m.rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out, nil
}

// replay picks one of app's recent traces and a timing config not yet
// served on it with predictor pred.
func (m *mixer) replay(app, pred string) (server.CellRequest, error) {
	ts := m.traces[app]
	if len(ts) > recentTraces {
		ts = ts[len(ts)-recentTraces:]
	}
	if len(ts) == 0 {
		return server.CellRequest{}, fmt.Errorf("no captured %s trace to replay", app)
	}
	start := m.rng.Intn(len(ts))
	combos := m.rng.Perm(6) // FXU {2,3,4} x BTAC {0,8}
	for i := range ts {
		t := ts[(start+i)%len(ts)]
		for _, c := range combos {
			fxus, btac := 2+c/2, 8*(c%2)
			key := configKey(fxus, btac, pred)
			if t.used[key] {
				continue
			}
			t.used[key] = true
			return server.CellRequest{App: app, Variant: t.variant, Seeds: []int64{t.seed},
				FXUs: fxus, BTACEntries: btac, Predictor: pred}, nil
		}
	}
	return server.CellRequest{}, fmt.Errorf("every recent %s trace served every %s config", app, pred)
}

// outcome is one answered request.
type outcome struct {
	status int
	resp   *server.CellResponse
	lat    float64 // seconds, send to last response byte
	err    error
}

// exec issues a block from one closed-loop client per CPU and returns
// the outcomes in block order with the block's wall and CPU time.  The
// block ends when its last request does, so a client that runs out of
// requests first waits for the others; idle is that waiting as a share
// of the clients' time over the block.
func (s *service) exec(ctx context.Context, url string, reqs []*cellReq) (outs []outcome, wall, cpuS, idle float64) {
	outs = make([]outcome, len(reqs))
	clients := runtime.NumCPU()
	ends := make([]time.Time, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	c0, t0 := cpuTime(), time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { ends[c] = time.Now() }()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				outs[i] = s.post(ctx, url, reqs[i].req)
			}
		}()
	}
	wg.Wait()
	end := time.Now()
	for _, e := range ends {
		idle += end.Sub(e).Seconds()
	}
	wall = end.Sub(t0).Seconds()
	return outs, wall, (cpuTime() - c0).Seconds(), idle / (wall * float64(clients))
}

func (s *service) post(ctx context.Context, url string, req server.CellRequest) outcome {
	body, err := json.Marshal(req)
	if err != nil {
		return outcome{err: err}
	}
	defer span(ctx, "bench.serve.cell")()
	t0 := time.Now()
	hr, err := s.client.Post(url+"/v1/cells", "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{err: err}
	}
	b, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	o := outcome{status: hr.StatusCode, lat: time.Since(t0).Seconds(), err: err}
	if err == nil && hr.StatusCode == http.StatusOK {
		o.resp = &server.CellResponse{}
		o.err = json.Unmarshal(b, o.resp)
	}
	return o
}

// settle checks each outcome — status 200, the class the response's
// coalesced and trace_hit fields confirm, a repeat equal to the cell
// it repeats — and records the block's new cells and traces.  It
// returns the number of 429 rejections.
func (m *mixer) settle(reqs []*cellReq, outs []outcome, led *ledger) (rejected int) {
	for i, q := range reqs {
		o := outs[i]
		switch {
		case o.err != nil:
			led.fail("%s %v: %v", classNames[q.class], q.req, o.err)
			continue
		case o.status == http.StatusTooManyRequests:
			rejected++
			led.fail("%s %v: rejected (429)", classNames[q.class], q.req)
			continue
		case o.status != http.StatusOK:
			led.fail("%s %v: HTTP %d", classNames[q.class], q.req, o.status)
			continue
		}
		if err := confirmClass(q, o.resp); err != nil {
			led.fail("%s %v: %v", classNames[q.class], q.req, err)
			continue
		}
		led.ok(1)
		if q.class == classCached {
			continue
		}
		m.served = append(m.served, &servedCell{req: q.req, resp: o.resp})
		if q.class == classCold {
			m.traces[q.req.App] = append(m.traces[q.req.App], &capturedTrace{
				app: q.req.App, variant: q.req.Variant, seed: q.req.Seeds[0],
				used: map[string]bool{coldConfig: true},
			})
		}
	}
	return rejected
}

func confirmClass(q *cellReq, r *server.CellResponse) error {
	var ok bool
	switch q.class {
	case classCached:
		ok = r.Coalesced == 1 && r.TraceHit
		if ok && (r.Key != q.ref.resp.Key || !reflect.DeepEqual(r.Stats, q.ref.resp.Stats)) {
			return errors.New("repeat differs from the cell it repeats")
		}
	case classReplay:
		ok = r.Coalesced == 0 && r.TraceHit
	case classCold:
		ok = r.Coalesced == 0 && !r.TraceHit
	}
	if !ok {
		return fmt.Errorf("response coalesced=%d trace_hit=%v contradicts the request class", r.Coalesced, r.TraceHit)
	}
	return nil
}

// servedJobs lists the distinct served cells as jobs, with the results
// the server returned for them.
func (m *mixer) servedJobs() ([]sched.Job, []cpu.Report, error) {
	var jobs []sched.Job
	var reps []cpu.Report
	for _, c := range m.served {
		v, err := kernels.VariantByName(c.resp.Variant)
		if err != nil {
			return nil, nil, err
		}
		s := harness.SetupFor(v, c.resp.FXUs, c.resp.BTACEntries, c.resp.Predictor)
		jobs = append(jobs, sched.Job{App: c.resp.App, Variant: v, CPU: s.CPU,
			Seed: c.resp.Seeds[0], Scale: c.resp.Scale})
		st := c.resp.Stats.Seeds[0]
		reps = append(reps, cpu.Report{Counters: st.Counters, Stalls: st.Stalls})
	}
	return jobs, reps, nil
}

// serveTotals accumulates what a set of blocks measured.
type serveTotals struct {
	byClass   [3][]float64 // latencies, seconds
	byBlock   [][]float64  // latencies, seconds
	idle      []float64    // per block, the clients' idle share
	costs     []telemetry.StageCost
	wall      float64
	computed  uint64
	memHits   uint64
	captures  uint64
	storeHits uint64
	sent      int
}

func (t *serveTotals) add(reqs []*cellReq, outs []outcome, wall, idle float64) {
	t.wall += wall
	t.idle = append(t.idle, idle)
	var lat []float64
	for i, q := range reqs {
		o := outs[i]
		t.sent++
		if o.resp == nil {
			continue
		}
		t.byClass[q.class] = append(t.byClass[q.class], o.lat)
		lat = append(lat, o.lat)
		t.costs = append(t.costs, o.resp.Cost)
	}
	t.byBlock = append(t.byBlock, lat)
}

// groupBlocks is how many consecutive blocks form one latency group:
// 1008 requests, whose tail is p99 with ten samples beyond it — about
// the median of the group's 28 cold cells of the largest application.
const groupBlocks = 28

// latencyGroups pools the blocks' latencies into groups of groupBlocks
// blocks; a trailing partial group is dropped unless it is the only
// one.
func (t *serveTotals) latencyGroups() [][]float64 {
	var groups [][]float64
	for i := 0; i < len(t.byBlock); i += groupBlocks {
		if i+groupBlocks > len(t.byBlock) && len(groups) > 0 {
			break
		}
		var g []float64
		for _, b := range t.byBlock[i:min(i+groupBlocks, len(t.byBlock))] {
			g = append(g, b...)
		}
		groups = append(groups, g)
	}
	return groups
}

// runBlock issues one block, settles it and folds the engine and store
// counter deltas into tot.
func (r *runner) runBlock(m *mixer, svc *service, traced bool, reqs []*cellReq, tot *serveTotals) (wall, cpuS float64, rejected int) {
	url := svc.urls[0]
	if traced {
		url = svc.urls[1]
	}
	st0, ts0 := svc.eng.Stats(), svc.eng.TraceStore().Stats()
	outs, wall, cpuS, idle := svc.exec(r.ctx(traced), url, reqs)
	st1, ts1 := svc.eng.Stats(), svc.eng.TraceStore().Stats()
	rejected = m.settle(reqs, outs, &r.led)
	if tot != nil {
		tot.add(reqs, outs, wall, idle)
		tot.computed += st1.Computed - st0.Computed
		tot.memHits += st1.MemoryHits - st0.MemoryHits
		tot.captures += ts1.Captures - ts0.Captures
		tot.storeHits += ts1.MemoryHits - ts0.MemoryHits
	}
	return wall, cpuS, rejected
}

// fillLimit bounds the untimed fill of the trace tier, in cells.
const fillLimit = 4000

// fillTraceTier issues untimed rounds of cold cells, one unseen seed
// per application, until the server's trace tier first evicts.  The
// window then measures a long-running server whose trace tier is full
// at the default budget, so memory does not grow with the length of
// the run or with how many blocks it completes.
func (r *runner) fillTraceTier(m *mixer, svc *service) error {
	t0 := time.Now()
	cells := 0
	for svc.eng.TraceStore().Stats().Evictions == 0 {
		if cells >= fillLimit {
			return fmt.Errorf("trace tier did not evict after %d cold cells", cells)
		}
		round := m.coldRound()
		r.runBlock(m, svc, false, round, nil)
		cells += len(round)
	}
	r.prov.Notes["fill_cells"] = cells
	r.prov.Notes["fill_s"] = time.Since(t0).Seconds()
	return nil
}

// runServeCells drives the in-process server with one closed-loop
// client per CPU, block after block, until the window is spent.
func runServeCells(r *runner) error {
	svc := r.svc
	m := newMixer(r.seed, r.kseeds)
	r.runBlock(m, svc, false, m.warmup(r.kseeds[0]), nil)
	if err := r.fillTraceTier(m, svc); err != nil {
		return err
	}
	var (
		walls, cpus      []float64
		traced           []float64
		plain, tracedTot serveTotals
		rejected         int
	)
	err := r.iterate(func(i int, isTraced bool) error {
		reqs, err := m.block()
		if err != nil {
			return err
		}
		tot := &plain
		if isTraced {
			tot = &tracedTot
		}
		wall, cpuS, rej := r.runBlock(m, svc, isTraced, reqs, tot)
		rejected += rej
		if isTraced {
			traced = append(traced, wall)
		} else {
			walls, cpus = append(walls, wall), append(cpus, cpuS)
		}
		return nil
	})
	if err != nil {
		return err
	}
	jobs, reps, err := m.servedJobs()
	if err != nil {
		return err
	}
	r.verifySample(jobs, reps, 2)
	r.prov.Clients = runtime.NumCPU()
	shares := map[string]float64{}
	for c, name := range classNames {
		shares[name] = float64(len(plain.byClass[c])+len(tracedTot.byClass[c])) /
			float64(plain.sent+tracedTot.sent)
	}
	r.prov.Notes["class_shares"] = shares
	r.prov.Notes["requests"] = plain.sent + tracedTot.sent
	r.prov.Notes["cells_per_iteration"] = blockSize
	r.prov.Notes["barrier_idle_frac"] = median(append(plain.idle, tracedTot.idle...))
	if !r.traced {
		p50s := map[string]float64{}
		for c, name := range classNames {
			p50s[name] = median(plain.byClass[c]) * 1000
		}
		r.prov.Notes["class_p50_ms"] = p50s
		r.wallCPU(walls, cpus)
		r.cellLatencies(plain.latencyGroups())
		r.e2e["cells_per_s"] = float64(plain.sent) / plain.wall
		return nil
	}
	r.serverLayer(&tracedTot, rejected)
	li := r.schedLayer(tracedTot.costs,
		sched.Stats{Computed: tracedTot.computed, MemoryHits: tracedTot.memHits, Workers: svc.eng.Stats().Workers},
		trace.Stats{Captures: tracedTot.captures, MemoryHits: tracedTot.storeHits,
			Bytes: svc.eng.TraceStore().Stats().Bytes},
		tracedTot.wall)
	spec := harness.SweepSpec{
		FXUs: []int{2}, BTACEntries: []int{0},
		Variants: []kernels.Variant{kernels.Branchy, kernels.Combination},
		Apps:     workload.Apps(),
		Config:   harness.Config{Scale: 1, Seeds: r.kseeds[:1], Engine: svc.eng, Context: r.ctx(true)},
	}
	li["harness.warm_rerun_ms"], err = warmRerun(r, svc.eng, spec)
	if err != nil {
		return err
	}
	r.medians([]map[string]float64{li})
	return r.overhead(walls, traced)
}

// serverLayer records the per-class p50 latencies and rejections.
func (r *runner) serverLayer(t *serveTotals, rejected int) {
	for c, name := range classNames {
		r.layer["server."+name+"_ms"] = median(t.byClass[c]) * 1000
		r.prov.Samples["server_"+name] = len(t.byClass[c])
	}
	r.layer["server.rejected"] = float64(rejected)
}

// serverProbe starts a fresh server and issues the warm-up block and
// one timed block through the traced listener, for workloads that do
// not serve cells themselves.
func (r *runner) serverProbe() error {
	svc, err := startService(r.tr)
	if err != nil {
		return err
	}
	defer svc.close()
	m := newMixer(r.seed, r.kseeds)
	var tot serveTotals
	_, _, rejected := r.runBlock(m, svc, true, m.warmup(r.kseeds[0]), &tot)
	reqs, err := m.block()
	if err != nil {
		return err
	}
	_, _, rej := r.runBlock(m, svc, true, reqs, &tot)
	r.serverLayer(&tot, rejected+rej)
	return nil
}
