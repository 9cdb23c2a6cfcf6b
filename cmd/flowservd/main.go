// Command flowservd serves flowsched projects over HTTP: every read
// surface of the facade (status, Gantt, dashboard, CPM, milestones,
// queries, risk, what-if sweeps, predictions), the mutating routes
// (plan, run, track, complete, import, milestone, propagate, edit,
// fork) with optimistic concurrency via If-Match, a Server-Sent-Events
// stream of flow events, and virtual-time schedules, plus Prometheus
// metrics and the dual-clock trace, all answered from consistent store
// snapshots (see internal/serve and docs/serve.md).
//
// It runs in one of two modes:
//
// Single-project mode either restores a saved hercules session (-load)
// or starts a fresh project from a schema, optionally planning and
// executing a first tracked run with simulated tools so the read
// surfaces have content:
//
//	flowservd -addr :8080 -schema builtin:fig4 -plan performance -run
//	flowservd -load session.json
//
// Host mode (-root) serves every durable project under a root
// directory — one WAL-backed directory per project, loaded lazily on
// first request, evicted under memory pressure, and recovered
// bit-identically after a crash (see docs/persistence.md):
//
//	flowservd -root /var/lib/flowsched -create alpha,beta
//
// Routes gain a /p/{id}/ prefix per project, plus /projects for the
// inventory.
//
// SIGINT/SIGTERM drains gracefully: the listener closes at once,
// in-flight requests finish (bounded by -drain), and in host mode every
// resident project is checkpointed and its WAL closed before exit.
//
// Startup failures exit non-zero with a message naming the offending
// path or flag.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"flowsched"
	"flowsched/internal/host"
	"flowsched/internal/serve"
	"flowsched/internal/workload"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("flowservd: ")
	if err := run(os.Args[1:]); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

// drainable is the common surface of the single-project server and the
// multi-project host.
type drainable interface {
	ListenAndServe() error
	Shutdown(ctx context.Context) error
}

func run(args []string) error {
	fs := flag.NewFlagSet("flowservd", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		schemaF  = fs.String("schema", "builtin:fig4", "flow schema: "+workload.SchemaUsage)
		load     = fs.String("load", "", "restore a saved session JSON instead of starting from -schema")
		root     = fs.String("root", "", "host mode: serve every durable project under this directory")
		create   = fs.String("create", "", "host mode: comma-separated project IDs to create from -schema if missing")
		checkEv  = fs.Int("checkpoint-every", 0, "host mode: auto-checkpoint after this many WAL records (0 = default 4096, negative = off)")
		designer = fs.String("designer", "flowservd", "designer recorded on schedule instances")
		plan     = fs.String("plan", "", "comma-separated target data classes to plan at startup")
		hours    = fs.Int("hours", 8, "fixed per-activity estimate for the startup plan (working hours)")
		runPlan  = fs.Bool("run", false, "execute the startup plan to completion with simulated tools")
		cacheN   = fs.Int("cache", 256, "snapshot memo-cache capacity (entries)")
		noCache  = fs.Bool("no-cache", false, "disable the snapshot memo cache")
		drain    = fs.Duration("drain", 30*time.Second, "graceful shutdown drain timeout")
		sample   = fs.Float64("trace-sample", 0, "fraction of requests whose span tree the flight recorder retains (0 = default 0.01, negative = off)")
		slow     = fs.Duration("trace-slow", 0, "latency at which a request's trace is always retained (0 = default 500ms, negative = off)")
		pprofF   = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")

		maxInFlight = fs.Int("max-inflight", 0, "admission-control capacity in weight units (/risk, /whatif and /run cost 8, /plan 4, other routes 1; 0 = off)")
		queueDepth  = fs.Int("queue-depth", 0, "requests allowed to wait for admission before shedding 503 (0 = 2×max-inflight)")
		retryAfter  = fs.Duration("retry-after", time.Second, "Retry-After hint on shed responses")
		routeDL     = fs.Duration("route-deadline", 0, "per-request rendering deadline; expiring simulations stop and answer 503 (0 = off)")
		tenantRate  = fs.Float64("tenant-rate", 0, "host mode: per-project fair-share tokens per second (0 = off)")
		tenantBurst = fs.Int("tenant-burst", 0, "host mode: per-project token-bucket burst (0 = ceil(tenant-rate))")

		readOnly = fs.Bool("readonly", false, "disable the mutating routes (POST /plan, /run, /track, ...): writes answer 403")
		maxForks = fs.Int("max-forks", 0, "fork sessions held at once; POST /fork beyond it answers 409 (0 = default 8)")
	)
	var schedules []string
	fs.Func("schedule", "virtual-time schedule `kind:action[:targets[:hours]]` (kind hourly|daily|weekly|every=4h; action plan|run|propagate; repeatable; single-project mode)", func(v string) error {
		schedules = append(schedules, v)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}

	sopt := serve.Options{
		Addr:               *addr,
		CacheEntries:       *cacheN,
		DisableCache:       *noCache,
		TraceSampleRate:    *sample,
		SlowTraceThreshold: *slow,
		EnablePprof:        *pprofF,
		MaxInFlight:        *maxInFlight,
		QueueDepth:         *queueDepth,
		RetryAfter:         *retryAfter,
		RouteDeadline:      *routeDL,
		TenantRate:         *tenantRate,
		TenantBurst:        *tenantBurst,
		ReadOnly:           *readOnly,
		MaxForks:           *maxForks,
	}

	var s drainable
	if *root != "" {
		if *load != "" {
			return fmt.Errorf("-root and -load are mutually exclusive")
		}
		if len(schedules) > 0 {
			return fmt.Errorf("-schedule is single-project only; in host mode POST /p/{id}/schedules instead")
		}
		h, err := buildHost(*root, *create, *schemaF, *designer, *checkEv, sopt)
		if err != nil {
			return err
		}
		s = h
		log.Printf("hosting projects under %s on %s", *root, *addr)
	} else {
		p, err := buildProject(*load, *schemaF, *designer)
		if err != nil {
			return err
		}
		if err := prepare(p, *plan, *hours, *runPlan); err != nil {
			return err
		}
		srv := serve.New(p, sopt)
		for _, spec := range schedules {
			sc, err := srv.AddSchedule(spec)
			if err != nil {
				return err
			}
			log.Printf("schedule %d: %s %s (next virtual fire %s)",
				sc.ID, sc.Kind, sc.Action, sc.Next.Format(time.RFC3339))
		}
		s = srv
		log.Printf("serving %s on %s (virtual now %s, cache %v)",
			p.Schema().Name, *addr, p.Now().Format(time.RFC3339), !*noCache)
	}

	errc := make(chan error, 1)
	go func() { errc <- s.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Printf("%s: draining (up to %s)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		if err := <-errc; err != nil && err != http.ErrServerClosed {
			return err
		}
		log.Print("drained")
		return nil
	}
}

// buildHost opens the multi-project host over root and seeds any
// -create projects that do not exist yet.
func buildHost(root, create, schemaF, designer string, checkEv int, sopt serve.Options) (*serve.Host, error) {
	if fi, err := os.Stat(root); err == nil && !fi.IsDir() {
		return nil, fmt.Errorf("-root %s: not a directory", root)
	}
	h, err := serve.NewHost(host.Options{
		Root:    root,
		Project: flowsched.Options{Designer: designer, Obs: flowsched.ObsOptions{Enabled: true}},
		Persist: flowsched.PersistOptions{CheckpointEvery: checkEv},
	}, sopt)
	if err != nil {
		return nil, err
	}
	if create != "" {
		src, err := workload.SchemaSource(schemaF)
		if err != nil {
			h.Shutdown(context.Background())
			return nil, err
		}
		for _, id := range strings.Split(create, ",") {
			id = strings.TrimSpace(id)
			hd, err := h.Projects().Create(id, src)
			if err != nil {
				if strings.Contains(err.Error(), "already exists") {
					continue
				}
				h.Shutdown(context.Background())
				return nil, err
			}
			hd.Release()
			log.Printf("created project %s under %s", id, root)
		}
	}
	return h, nil
}

// buildProject restores a saved session or starts a fresh project from
// a schema, with observability on either way.
func buildProject(load, schemaF, designer string) (*flowsched.Project, error) {
	opt := flowsched.Options{Designer: designer, Obs: flowsched.ObsOptions{Enabled: true}}
	if load != "" {
		b, err := os.ReadFile(load)
		if err != nil {
			return nil, err
		}
		p, err := flowsched.Load(b, opt)
		if err != nil {
			return nil, fmt.Errorf("-load %s: %w", load, err)
		}
		// A restored session has no tool processes; rebind the
		// simulated defaults so risk models and what-if sweeps work.
		if err := p.UseSimulatedTools(); err != nil {
			return nil, err
		}
		return p, nil
	}
	src, err := workload.SchemaSource(schemaF)
	if err != nil {
		return nil, err
	}
	p, err := flowsched.New(src, opt)
	if err != nil {
		return nil, fmt.Errorf("-schema %s: %w", schemaF, err)
	}
	if err := p.UseSimulatedTools(); err != nil {
		return nil, err
	}
	return p, nil
}

// prepare optionally plans (and runs) the requested targets so a fresh
// daemon serves populated read surfaces instead of "no plan" errors. The
// writes are ops (flowsched.ParseOp), so -plan and -hours are checked by
// the same grammar, with the same messages, as POST /plan.
func prepare(p *flowsched.Project, plan string, hours int, runPlan bool) error {
	if plan == "" {
		if runPlan {
			return fmt.Errorf("-run needs -plan")
		}
		return nil
	}
	apply := func(kind string, q url.Values, body []byte) (flowsched.OpResult, error) {
		op, err := flowsched.ParseOp(kind, q, body)
		if err != nil {
			return flowsched.OpResult{}, fmt.Errorf("startup %s: %w", kind, err)
		}
		return op.Apply(p)
	}
	planOp, err := flowsched.ParseOp("plan", url.Values{"targets": {plan}, "hours": {strconv.Itoa(hours)}}, nil)
	if err != nil {
		return fmt.Errorf("startup plan: %w", err)
	}
	// Seed every primary input so planned activities are runnable.
	for _, in := range p.Schema().PrimaryInputs() {
		if _, err := apply("import", url.Values{"class": {in}}, []byte("seeded by flowservd")); err != nil {
			return err
		}
	}
	r, err := planOp.Apply(p)
	if err != nil {
		return err
	}
	log.Printf("planned %v at %dh per activity", r.Targets, hours)
	if runPlan {
		if r, err = apply("run", url.Values{"targets": {plan}}, nil); err != nil {
			return err
		}
		log.Printf("startup run: %d activities, %s .. %s",
			len(r.Run.Outcomes), r.Run.Started.Format(time.RFC3339), r.Run.Finished.Format(time.RFC3339))
	}
	return nil
}
