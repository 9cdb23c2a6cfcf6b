package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"flowsched"
	"flowsched/internal/host"
	"flowsched/internal/serve"
)

// projectID is the tenant every workload serves.
const projectID = "asic"

// projectOptions are the options of every project the benchmark opens,
// served or not: the same designer (so histories are bit-identical) and
// observability on, as flowservd runs it.
var projectOptions = flowsched.Options{Designer: "bench", Obs: flowsched.ObsOptions{Enabled: true}}

// designerIteration is one turn of the designer loop through the
// facade: new RTL, a fresh tracked plan, and a tracked run to sign-off.
func designerIteration(p *flowsched.Project, rtl []byte) error {
	if _, err := p.Import("rtl", rtl); err != nil {
		return err
	}
	if _, err := p.Plan(asicTargets, flowsched.Fixed{Default: 8 * time.Hour}, flowsched.PlanOptions{}); err != nil {
		return err
	}
	_, err := p.RunWith(asicTargets, flowsched.RunOptions{AutoComplete: true})
	return err
}

// buildHistory replays the fixed history every workload starts from:
// the primary inputs, the import→plan→run iterations, the milestones,
// and one propagate so later propagates are state-neutral.
func buildHistory(p *flowsched.Project, h history) error {
	for _, class := range []string{"constraints", "testbench"} {
		if _, err := p.Import(class, h.primary[class]); err != nil {
			return err
		}
	}
	for _, rtl := range h.rtl {
		if err := designerIteration(p, rtl); err != nil {
			return err
		}
	}
	now := p.Now()
	for _, m := range h.milestones {
		if err := p.SetMilestone(m.name, m.class, now.Add(workDays(m.days))); err != nil {
			return err
		}
	}
	_, err := p.Propagate()
	return err
}

// env is one round's running system: a multi-tenant host serving one
// durable project over loopback, its WAL written through a countingFS.
// In traced rounds it also holds the shadow project (same history,
// never served) that write-path and simulation calls replay on, and two
// standalone servers over the live project that price request
// observability.
type env struct {
	dir    string
	fs     *countingFS
	h      *serve.Host
	hd     *host.Handle // the live project, pinned for the round
	served chan error
	base   string // http://addr/p/asic
	root   string // http://addr
	client *http.Client

	tr       *tracer
	shadow   *flowsched.Project
	shadowFS *countingFS
	wmu      sync.Mutex // serializes writes and their shadow replays in traced rounds
	plain    *standalone
	bare     *standalone

	lmu       sync.Mutex
	layer     map[string][]float64 // per-layer samples of traced rounds
	simSeen   map[string]bool      // inputs already simulated or swept fresh
	writeMark []writeMark          // per write: events appended by its end
	obsReads  int                  // traced reads so far, for pricing request observability
}

// standalone is a single-project server over the live project.
type standalone struct {
	s      *serve.Server
	base   string
	served chan error
}

func startStandalone(p *flowsched.Project, opt serve.Options) (*standalone, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st := &standalone{s: serve.New(p, opt), base: "http://" + l.Addr().String(), served: make(chan error, 1)}
	go func() { st.served <- st.s.Serve(l) }()
	return st, nil
}

func (st *standalone) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.s.Shutdown(ctx)
	if serr := <-st.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// newEnv builds the project from hist through the facade, brings the
// host up on a loopback listener, and (traced) builds the shadow. On
// error it tears down whatever it started.
func newEnv(dir string, hist history, tr *tracer) (_ *env, err error) {
	e := &env{dir: dir, fs: &countingFS{name: "persist", tr: tr}, tr: tr, served: make(chan error, 1), layer: map[string][]float64{}}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.h, err = serve.NewHost(host.Options{
		Root: filepath.Join(dir, "root"), Project: projectOptions,
		Persist: flowsched.PersistOptions{FS: e.fs},
	}, serve.Options{}); err != nil {
		return nil, err
	}
	if e.hd, err = e.h.Projects().Create(projectID, flowsched.ASICSchema); err != nil {
		return nil, err
	}
	if err := e.hd.Do(func(p *flowsched.Project) error { return buildHistory(p, hist) }); err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { e.served <- e.h.Serve(l) }()
	e.root = "http://" + l.Addr().String()
	e.base = e.root + "/p/" + projectID
	e.client = newHTTPClient()
	if tr == nil {
		return e, nil
	}
	e.shadowFS = &countingFS{name: "shadow", tr: tr}
	if e.shadow, err = flowsched.Open(filepath.Join(dir, "shadow"), flowsched.ASICSchema, projectOptions,
		flowsched.PersistOptions{FS: e.shadowFS}); err != nil {
		return nil, err
	}
	if err := e.shadow.UseSimulatedTools(); err != nil {
		return nil, err
	}
	if err := buildHistory(e.shadow, hist); err != nil {
		return nil, fmt.Errorf("shadow history: %w", err)
	}
	if e.plain, err = startStandalone(e.live(), serve.Options{}); err != nil {
		return nil, err
	}
	if e.bare, err = startStandalone(e.live(), serve.Options{DisableRequestObs: true}); err != nil {
		return nil, err
	}
	return e, nil
}

// live is the served project instance.
func (e *env) live() *flowsched.Project { return e.hd.Project() }

// close shuts everything down, waits for the servers to exit and
// removes the round's files.
func (e *env) close() error {
	var errs []error
	for _, st := range []*standalone{e.plain, e.bare} {
		if st != nil {
			errs = append(errs, st.stop())
		}
	}
	if e.hd != nil {
		e.hd.Release()
	}
	if e.h != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		errs = append(errs, e.h.Shutdown(ctx))
		cancel()
		if e.root != "" {
			if err := <-e.served; !errors.Is(err, http.ErrServerClosed) {
				errs = append(errs, err)
			}
		}
	}
	if e.shadow != nil {
		errs = append(errs, e.shadow.Close())
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	errs = append(errs, os.RemoveAll(e.dir))
	return errors.Join(errs...)
}

// response is what one HTTP operation returned.
type response struct {
	status  int
	cache   string
	version uint64
	body    []byte
}

// do issues one request and reads the whole response.
func (e *env) do(method, url string, body []byte, ifMatch uint64) (response, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return response{}, err
	}
	if ifMatch != 0 {
		req.Header.Set("If-Match", strconv.FormatUint(ifMatch, 10))
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, err
	}
	r := response{status: resp.StatusCode, cache: resp.Header.Get("X-Flowsched-Cache"), body: b}
	if v := resp.Header.Get("X-Flowsched-Version"); v != "" {
		r.version, _ = strconv.ParseUint(v, 10, 64)
	}
	return r, nil
}

// promSeries is one sample of a Prometheus text page.
type promSeries struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape reads the project's /metrics page: the per-project server's
// registry followed by the project's own.
func (e *env) scrape() ([]promSeries, error) {
	r, err := e.do("GET", e.base+"/metrics", nil, 0)
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", r.status)
	}
	var out []promSeries
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		s := promSeries{name: line[:i], labels: map[string]string{}, value: v}
		if j := strings.IndexByte(s.name, '{'); j >= 0 {
			for _, kv := range strings.Split(strings.TrimSuffix(s.name[j+1:], "}"), ",") {
				if k, v, ok := strings.Cut(kv, "="); ok {
					s.labels[k] = strings.Trim(v, `"`)
				}
			}
			s.name = s.name[:j]
		}
		out = append(out, s)
	}
	return out, nil
}

// sum adds every series of name whose labels include want (pairs of
// key, value).
func sum(series []promSeries, name string, want ...string) float64 {
	var t float64
	for _, s := range series {
		if s.name != name {
			continue
		}
		ok := true
		for i := 0; i+1 < len(want); i += 2 {
			if s.labels[want[i]] != want[i+1] {
				ok = false
				break
			}
		}
		if ok {
			t += s.value
		}
	}
	return t
}

// counters are the program's own counters the benchmark reads around a
// timed phase.
type counters struct {
	memoHit, memoMiss, fpHit, fpMiss float64
	sampled, reused                  float64
	conflicts                        float64
}

func readCounters(series []promSeries) counters {
	return counters{
		memoHit:   sum(series, "serve_cache_events_total", "tier", "memo", "event", "hit"),
		memoMiss:  sum(series, "serve_cache_events_total", "tier", "memo", "event", "miss"),
		fpHit:     sum(series, "serve_cache_events_total", "tier", "fingerprint", "event", "hit"),
		fpMiss:    sum(series, "serve_cache_events_total", "tier", "fingerprint", "event", "miss"),
		sampled:   sum(series, "monte_activity_trials_sampled_total"),
		reused:    sum(series, "subtree_reuse_trials_total"),
		conflicts: sum(series, "serve_write_conflicts_total"),
	}
}

func (a counters) sub(b counters) counters {
	return counters{
		a.memoHit - b.memoHit, a.memoMiss - b.memoMiss, a.fpHit - b.fpHit, a.fpMiss - b.fpMiss,
		a.sampled - b.sampled, a.reused - b.reused, a.conflicts - b.conflicts,
	}
}

// copyDir copies a project directory file by file (no subdirectories
// exist in a WAL directory).
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	names := make([]string, 0, len(ents))
	for _, de := range ents {
		if de.Type().IsRegular() {
			names = append(names, de.Name())
		}
	}
	sort.Strings(names)
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(src, n))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, n), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
