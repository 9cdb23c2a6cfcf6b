// Command hercules is a command-line workflow manager with integrated
// design schedule management — the textual counterpart of the Hercules
// user interface of the paper's Fig. 8.
//
// It reads commands from stdin (one per line), so sessions can be typed
// interactively or piped as scripts:
//
//	$ hercules <<'EOF'
//	schema builtin:fig4
//	tools
//	import stimuli pulse 0 5 1ns
//	plan performance 8
//	run performance
//	tree performance
//	gantt
//	query duration of Create
//	dump
//	EOF
//
// Commands:
//
//	schema builtin:fig4|asic|board|analog|<path>  load a task schema
//	tools                                     bind simulated tools to all activities
//	import <class> <text...>                  file design data for a primary input
//	plan <targets,comma-sep> <hours>          plan: simulate execution, fixed est.
//	run <targets,comma-sep> [parallel]        execute tracked against current plan;
//	                                          "parallel" overlaps independent branches
//	policy default|off                        fault-tolerance policy for run: "default"
//	                                          enables retry backoff, 72h run deadlines,
//	                                          tool failover, graceful degradation
//	faults seed=<n> [crash=p] [hang=p] [corrupt=p] [outages=n]
//	                                          arm a seeded, replayable fault plan over
//	                                          every bound tool (chaos testing)
//	faults                                    show the fault injection log
//	resume                                    after a failed run: continue from the
//	                                          checkpoint, re-running nothing completed
//	status                                    plan-vs-actual table
//	tree <targets,comma-sep>                  task tree view with schedule state
//	gantt                                     Gantt chart of the current plan
//	analyze                                   CPM/PERT critical path of the plan
//	risk <targets,comma-sep> [trials]         Monte-Carlo schedule risk analysis
//	predict <activity> [method] [size]        estimate the next duration from completed
//	                                          history (mean, ewma, regression) with a
//	                                          back-test score when history allows
//	whatif <targets> <name=edit;...> ...      what-if sweep over copy-on-write forks;
//	                                          edits: Act*1.5 (scale tool runtime),
//	                                          Act+3h / Act+2d (delay; d = 8h workday),
//	                                          parallel (team execution)
//	optimize <targets> <hours> <max-team>     smallest team near the critical path
//	query <text...>                           §IV.B query (see docs)
//	dump                                      task database dump (Figs. 5–7 view)
//	report [days]                             periodic status report (default last 7 days)
//	milestone <name> <class> <date>           commit a milestone (proposed milestone);
//	                                          date 1995-06-09T17:00 (UTC) or RFC 3339
//	milestones                                milestone report (achieved/pending, margin)
//	export csv|mpx <path>                     export the plan for PM tooling
//	actuals <path>                            import hand-collected actual dates (CSV)
//	stats [json]                              observability metrics (Prometheus text or JSON)
//	trace [depth]                             dual-clock span tree (virtual + wall time)
//	flight                                    flight recorder: recent + slowest operations
//	events                                    new manager events since the last call
//	save <path>                               persist the whole session as JSON
//	load <path>                               restore a saved session (rebind tools after)
//	quit                                      end the session
//
// One argv-level subcommand bypasses the REPL:
//
//	hercules projects <root>                  list the durable projects under a
//	                                          flowservd host root (see docs/persistence.md)
package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"flowsched"
	"flowsched/internal/scenario"
	"flowsched/internal/workload"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "projects" {
		if err := projectsCmd(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "hercules:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hercules:", err)
		os.Exit(1)
	}
}

// projectsCmd lists the durable projects under a flowservd host root
// without loading any of them: the inventory comes from the manifest
// files, the sizes from the WAL directories on disk.
func projectsCmd(args []string, out io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: hercules projects <root>")
	}
	root := args[0]
	fi, err := os.Stat(root)
	if err != nil {
		return err
	}
	if !fi.IsDir() {
		return fmt.Errorf("%s: not a directory", root)
	}
	ents, err := os.ReadDir(root)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(out)
	defer w.Flush()
	n := 0
	for _, de := range ents {
		if !de.IsDir() {
			continue
		}
		dir := filepath.Join(root, de.Name())
		if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
			continue
		}
		var bytes int64
		files, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, f := range files {
			if info, err := f.Info(); err == nil {
				bytes += info.Size()
			}
		}
		tag := ""
		if _, err := os.Stat(filepath.Join(dir, "quarantined.json")); err == nil {
			tag = "  QUARANTINED"
		}
		fmt.Fprintf(w, "%-32s %10d bytes%s\n", de.Name(), bytes, tag)
		n++
	}
	if n == 0 {
		fmt.Fprintf(w, "no projects under %s\n", root)
	}
	return nil
}

type session struct {
	project *flowsched.Project
	out     *bufio.Writer
	// eventSeq is the events cursor: how many manager events the
	// "events" command has already printed (reset on schema/load).
	eventSeq int
	// recovery is the fault-tolerance policy "run" executes under
	// (set by "policy"; zero = historical abort-on-first-exhaustion).
	recovery flowsched.Recovery
	// resumeErr holds the last failed run's checkpoint for "resume".
	resumeErr *flowsched.ExecError
}

func run(in io.Reader, out io.Writer) error {
	s := &session{out: bufio.NewWriter(out)}
	defer s.out.Flush()
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "quit" || line == "exit" {
			break
		}
		if err := s.dispatch(line); err != nil {
			fmt.Fprintf(s.out, "error: %v\n", err)
		}
		s.out.Flush()
	}
	return sc.Err()
}

func (s *session) dispatch(line string) error {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	if cmd != "schema" && cmd != "load" && s.project == nil {
		return fmt.Errorf("load a schema first (schema builtin:fig4)")
	}
	switch cmd {
	case "schema":
		return s.loadSchema(args)
	case "load":
		if len(args) != 1 {
			return fmt.Errorf("usage: load <snapshot.json>")
		}
		blob, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		p, err := flowsched.Load(blob, flowsched.Options{Obs: flowsched.ObsOptions{Enabled: true}})
		if err != nil {
			return err
		}
		s.project = p
		s.eventSeq = 0
		fmt.Fprintf(s.out, "restored session at %s (rebind tools before run)\n",
			p.Now().Format("2006-01-02 15:04"))
		return nil
	case "tools":
		if err := s.project.UseSimulatedTools(); err != nil {
			return err
		}
		fmt.Fprintln(s.out, "simulated tools bound to all activities")
		return nil
	case "import":
		if len(args) < 2 {
			return fmt.Errorf("usage: import <class> <text...>")
		}
		res, err := s.apply("import", url.Values{"class": {args[0]}}, []byte(strings.Join(args[1:], " ")))
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "imported as %s\n", res.ID)
		return nil
	case "plan":
		return s.plan(args)
	case "run":
		return s.exec(args)
	case "policy":
		return s.policy(args)
	case "faults":
		return s.faults(args)
	case "resume":
		return s.resume(args)
	case "status":
		return s.status()
	case "tree":
		if len(args) != 1 {
			return fmt.Errorf("usage: tree <targets,comma-sep>")
		}
		targets := strings.Split(args[0], ",")
		return s.show(func(v *flowsched.ProjectView) (string, error) { return v.TaskTreeView(targets...) })
	case "gantt":
		return s.show((*flowsched.ProjectView).Gantt)
	case "analyze":
		return s.analyze()
	case "risk":
		return s.risk(args)
	case "predict":
		return s.predict(args)
	case "whatif":
		return s.whatif(args)
	case "optimize":
		return s.optimize(args)
	case "query":
		if len(args) == 0 {
			return fmt.Errorf("usage: query <text...>")
		}
		return s.show(func(v *flowsched.ProjectView) (string, error) {
			ans, err := v.Query(strings.Join(args, " "))
			return ans + "\n", err
		})
	case "dump":
		fmt.Fprint(s.out, s.project.DatabaseDump())
		return nil
	case "report":
		days := 7
		if len(args) == 1 {
			d, err := strconv.Atoi(args[0])
			if err != nil || d <= 0 {
				return fmt.Errorf("bad day count %q", args[0])
			}
			days = d
		} else if len(args) > 1 {
			return fmt.Errorf("usage: report [days]")
		}
		return s.show(func(v *flowsched.ProjectView) (string, error) {
			to := v.Now()
			return v.StatusReport(to.Add(-time.Duration(days)*24*time.Hour), to)
		})
	case "milestone":
		if len(args) != 3 {
			return fmt.Errorf("usage: milestone <name> <class> <YYYY-MM-DDTHH:MM>")
		}
		q := url.Values{"name": {args[0]}, "class": {args[1]}, "target": {args[2]}}
		if _, err := s.apply("milestone", q, nil); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "milestone %s: %s by %s\n", args[0], args[1], args[2])
		return nil
	case "milestones":
		v, err := s.view()
		if err != nil {
			return err
		}
		report, err := v.MilestoneReport()
		if err != nil {
			return err
		}
		if len(report) == 0 {
			fmt.Fprintln(s.out, "no milestones set")
			return nil
		}
		for _, m := range report {
			state := "pending"
			if m.Achieved {
				state = "achieved " + m.AchievedAt.Format("2006-01-02")
			}
			fmt.Fprintf(s.out, "  %-16s %-12s target %s  %s  margin %s\n",
				m.Name, m.Class, m.Target.Format("2006-01-02"), state,
				m.Margin.Round(time.Minute))
		}
		return nil
	case "stats":
		return s.stats(args)
	case "trace":
		return s.trace(args)
	case "flight":
		return s.flight(args)
	case "events":
		return s.events(args)
	case "export":
		return s.export(args)
	case "actuals":
		if len(args) != 1 {
			return fmt.Errorf("usage: actuals <csv-path>")
		}
		rows, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		res, err := s.apply("track", nil, rows)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "applied %d actual(s)\n", res.Applied)
		return nil
	case "save":
		if len(args) != 1 {
			return fmt.Errorf("usage: save <path>")
		}
		blob, err := s.project.Snapshot()
		if err != nil {
			return err
		}
		if err := os.WriteFile(args[0], blob, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "saved %d bytes to %s\n", len(blob), args[0])
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// view takes a fresh snapshot-pinned view of the session's project, so
// every read command renders from one consistent moment.
func (s *session) view() (*flowsched.ProjectView, error) { return s.project.View() }

// show prints one rendering of a fresh view.
func (s *session) show(render func(*flowsched.ProjectView) (string, error)) error {
	v, err := s.view()
	if err != nil {
		return err
	}
	out, err := render(v)
	if err != nil {
		return err
	}
	fmt.Fprint(s.out, out)
	return nil
}

func (s *session) loadSchema(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: schema %s", workload.SchemaUsage)
	}
	src, err := workload.SchemaSource(args[0])
	if err != nil {
		return err
	}
	p, err := flowsched.New(src, flowsched.Options{
		Designer: username(),
		Obs:      flowsched.ObsOptions{Enabled: true},
	})
	if err != nil {
		return err
	}
	s.project = p
	s.eventSeq = 0
	sch := p.Schema()
	fmt.Fprintf(s.out, "schema %s: %d activities, primary inputs %v, primary outputs %v\n",
		sch.Name, len(sch.Rules()), sch.PrimaryInputs(), sch.PrimaryOutputs())
	return nil
}

func (s *session) plan(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: plan <targets,comma-sep> <hours-per-activity>")
	}
	res, err := s.apply("plan", url.Values{"targets": {args[0]}, "hours": {args[1]}}, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "plan v%d: %d activities, finish %s\n",
		res.Plan.Version, len(res.Plan.Activities), res.Plan.Finish.Format("2006-01-02 15:04"))
	return nil
}

func (s *session) exec(args []string) error {
	if len(args) < 1 || len(args) > 2 || (len(args) == 2 && args[1] != "parallel") {
		return fmt.Errorf("usage: run <targets,comma-sep> [parallel]")
	}
	q := url.Values{"targets": {args[0]}, "parallel": {strconv.FormatBool(len(args) == 2)}}
	res, err := s.apply("run", q, nil)
	if err != nil {
		var ee *flowsched.ExecError
		if errors.As(err, &ee) {
			s.resumeErr = ee
			fmt.Fprintf(s.out, "run failed: %v\n", err)
			fmt.Fprintf(s.out, "completed before the failure: %s\n", orNone(ee.Completed()))
			fmt.Fprintln(s.out, "fix the cause (rebind tools, raise limits) and \"resume\" to continue from the checkpoint")
			return nil
		}
		return err
	}
	s.printExec(res.Run)
	return nil
}

// apply parses one write from its named parameters — the argv mapped
// onto the keys of the op grammar — and applies it to the project; a
// run executes under the session's policy.
func (s *session) apply(kind string, q url.Values, body []byte) (flowsched.OpResult, error) {
	op, err := flowsched.ParseOp(kind, q, body)
	if err != nil {
		return flowsched.OpResult{}, err
	}
	op.Recovery = s.recovery
	return op.Apply(s.project)
}

func (s *session) printExec(res *flowsched.ExecResult) {
	for _, o := range res.Outcomes {
		fmt.Fprintf(s.out, "  %-12s %d iteration(s), final %s, finished %s\n",
			o.Activity, o.Iterations, o.FinalEntity.ID, o.Finished.Format("2006-01-02 15:04"))
	}
	if len(res.Resumed) > 0 {
		fmt.Fprintf(s.out, "  resumed from checkpoint, skipped: %s\n", strings.Join(res.Resumed, ", "))
	}
	if len(res.Blocked) > 0 {
		fmt.Fprintf(s.out, "  blocked (fenced, shown as slip in status): %s\n", strings.Join(res.Blocked, ", "))
	}
}

func orNone(list []string) string {
	if len(list) == 0 {
		return "(nothing)"
	}
	return strings.Join(list, ", ")
}

// policy selects the fault-tolerance policy subsequent runs use.
func (s *session) policy(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: policy default|off")
	}
	switch args[0] {
	case "default":
		s.recovery = flowsched.DefaultRecovery()
		r := s.recovery
		fmt.Fprintf(s.out, "policy: backoff %s x%g (max %s), run deadline %s, failover on, continue-on-block on\n",
			r.Backoff.Initial, r.Backoff.Factor, r.Backoff.Max, r.RunDeadline)
	case "off":
		s.recovery = flowsched.Recovery{}
		fmt.Fprintln(s.out, "policy: off (immediate retries, abort on first exhausted activity)")
	default:
		return fmt.Errorf("usage: policy default|off")
	}
	return nil
}

// faults arms a seeded fault plan over the bound tools, or with no
// arguments prints the injection log of the armed plan.
func (s *session) faults(args []string) error {
	if len(args) == 0 {
		hist := s.project.FaultHistory()
		if hist == nil {
			fmt.Fprintln(s.out, "no fault plan armed (faults seed=<n> crash=0.2 ...)")
			return nil
		}
		fmt.Fprintf(s.out, "fault plan: %d decision(s), %d injected\n",
			len(hist), s.project.FaultsInjected())
		for _, h := range hist {
			fmt.Fprintf(s.out, "  %s  %-12s attempt %d  %s\n",
				h.At.Format("2006-01-02 15:04"), h.Activity, h.Attempt, h.Kind)
		}
		return nil
	}
	cfg := flowsched.FaultConfig{Seed: -1}
	for _, a := range args {
		key, val, ok := strings.Cut(a, "=")
		if !ok {
			return fmt.Errorf("bad fault option %q (want key=value)", a)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return fmt.Errorf("bad seed %q", val)
			}
			cfg.Seed = n
		case "crash", "hang", "corrupt":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return fmt.Errorf("bad %s probability %q", key, val)
			}
			switch key {
			case "crash":
				cfg.Crash = p
			case "hang":
				cfg.Hang = p
			case "corrupt":
				cfg.Corrupt = p
			}
		case "outages":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return fmt.Errorf("bad outage count %q", val)
			}
			cfg.LicenseOutages = n
		default:
			return fmt.Errorf("unknown fault option %q (seed, crash, hang, corrupt, outages)", key)
		}
	}
	if cfg.Seed < 0 {
		return fmt.Errorf("faults needs seed=<n> (the plan replays bit-identically per seed)")
	}
	if cfg.LicenseOutages > 0 {
		cfg.LicenseStart = s.project.Now()
	}
	if err := s.project.InjectFaults(cfg); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "fault plan armed (seed %d): crash %g, hang %g, corrupt %g, license outages %d\n",
		cfg.Seed, cfg.Crash, cfg.Hang, cfg.Corrupt, cfg.LicenseOutages)
	return nil
}

// resume continues the last failed run from its checkpoint.
func (s *session) resume(args []string) error {
	if len(args) != 0 {
		return fmt.Errorf("usage: resume")
	}
	if s.resumeErr == nil {
		return fmt.Errorf("nothing to resume (no failed run this session)")
	}
	res, err := s.resumeErr.Resume()
	if err != nil {
		var ee *flowsched.ExecError
		if errors.As(err, &ee) {
			s.resumeErr = ee
			fmt.Fprintf(s.out, "resume failed again: %v\n", err)
			fmt.Fprintf(s.out, "completed so far: %s\n", orNone(ee.Completed()))
			return nil
		}
		return err
	}
	s.resumeErr = nil
	s.printExec(res)
	return nil
}

func (s *session) status() error {
	v, err := s.view()
	if err != nil {
		return err
	}
	rows, err := v.Status()
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "%-12s %-12s %-16s %-16s %s\n",
		"activity", "state", "planned finish", "actual finish", "slip")
	for _, r := range rows {
		actual := "—"
		if !r.ActualFinish.IsZero() {
			actual = r.ActualFinish.Format("2006-01-02 15:04")
		}
		fmt.Fprintf(s.out, "%-12s %-12s %-16s %-16s %s\n",
			r.Activity, r.State, r.PlannedFinish.Format("2006-01-02 15:04"), actual,
			r.Slip.Round(time.Minute))
	}
	return nil
}

func (s *session) analyze() error {
	v, err := s.view()
	if err != nil {
		return err
	}
	res, err := v.Analyze()
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "project span %s working; critical path: %s\n",
		res.Duration, strings.Join(res.CriticalPath, " -> "))
	for _, tm := range res.Timings {
		mark := " "
		if tm.Critical {
			mark = "*"
		}
		fmt.Fprintf(s.out, " %s %-12s ES=%-8s slack=%s\n", mark, tm.Name, tm.EarlyStart, tm.Slack)
	}
	return nil
}

// whatif runs a what-if sweep: each argument after the targets is one
// scenario, "name=edit;edit;...".
func (s *session) whatif(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: whatif <targets,comma-sep> <name=edit;edit;...> ...")
	}
	edits := make([]flowsched.ScenarioEdit, 0, len(args)-1)
	for _, spec := range args[1:] {
		e, err := scenario.ParseEdit(spec)
		if err != nil {
			return err
		}
		edits = append(edits, e)
	}
	rep, err := s.project.Scenarios(strings.Split(args[0], ","), edits, flowsched.ScenarioOptions{})
	if err != nil {
		return err
	}
	fmt.Fprint(s.out, rep.Render())
	return nil
}

func (s *session) export(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: export csv|mpx <path>")
	}
	v, err := s.view()
	if err != nil {
		return err
	}
	var out string
	switch args[0] {
	case "csv":
		out, err = v.ExportPlanCSV()
	case "mpx":
		out, err = v.ExportMPX()
	default:
		return fmt.Errorf("unknown export format %q (want csv or mpx)", args[0])
	}
	if err != nil {
		return err
	}
	if err := os.WriteFile(args[1], []byte(out), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "exported %s to %s\n", args[0], args[1])
	return nil
}

func (s *session) risk(args []string) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("usage: risk <targets,comma-sep> [trials]")
	}
	trials := 1000
	if len(args) == 2 {
		t, err := strconv.Atoi(args[1])
		if err != nil || t <= 0 {
			return fmt.Errorf("bad trial count %q", args[1])
		}
		trials = t
	}
	res, err := s.project.SimulateRiskWith(strings.Split(args[0], ","),
		flowsched.RiskOptions{Trials: trials, Seed: 1995})
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "risk over %d trials: mean %s, p10 %s, p50 %s, p90 %s\n",
		trials,
		res.Mean().Round(time.Minute),
		res.Percentile(0.1).Round(time.Minute),
		res.Percentile(0.5).Round(time.Minute),
		res.Percentile(0.9).Round(time.Minute))
	return nil
}

func (s *session) predict(args []string) error {
	if len(args) < 1 || len(args) > 3 {
		return fmt.Errorf("usage: predict <activity> [mean|ewma|regression] [size]")
	}
	opt := flowsched.PredictOptions{}
	if len(args) >= 2 {
		opt.Method = args[1]
	}
	if len(args) == 3 {
		sz, err := strconv.ParseFloat(args[2], 64)
		if err != nil || !(sz > 0) { // !(>0) also rejects NaN
			return fmt.Errorf("bad size %q", args[2])
		}
		opt.Size = sz
	}
	v, err := s.view()
	if err != nil {
		return err
	}
	pred, err := v.PredictDuration(args[0], opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "predicted duration of %s: %s (%s over %d completed samples)\n",
		pred.Activity, pred.Estimate.Round(time.Minute), pred.Method, pred.Samples)
	// A back-test needs at least two samples; skip the score quietly
	// when history is too thin for one.
	if acc, err := v.EvaluatePredictor(args[0], opt, 1); err == nil && acc.N > 0 {
		fmt.Fprintf(s.out, "back-test: MAE %s, MAPE %.1f%% over %d held-out samples\n",
			acc.MAE.Round(time.Minute), acc.MAPE*100, acc.N)
	}
	return nil
}

func (s *session) optimize(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("usage: optimize <targets,comma-sep> <hours-per-activity> <max-team>")
	}
	hours, err := strconv.Atoi(args[1])
	if err != nil || hours <= 0 {
		return fmt.Errorf("bad hours %q", args[1])
	}
	maxTeam, err := strconv.Atoi(args[2])
	if err != nil || maxTeam <= 0 {
		return fmt.Errorf("bad team size %q", args[2])
	}
	tp, err := s.project.OptimizeTeam(strings.Split(args[0], ","),
		flowsched.Fixed{Default: time.Duration(hours) * time.Hour}, maxTeam, 1.05)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "smallest team within 5%% of critical path: %d (makespan %s, critical path %s)\n",
		tp.Size, tp.Makespan, tp.CriticalPath)
	for _, a := range tp.Assignments {
		fmt.Fprintf(s.out, "  %-12s %-4s %8s .. %s\n", a.Task, a.Resource, a.Start, a.Finish)
	}
	return nil
}

func (s *session) stats(args []string) error {
	if len(args) > 1 || (len(args) == 1 && args[0] != "json") {
		return fmt.Errorf("usage: stats [json]")
	}
	if len(args) == 1 {
		blob, err := s.project.MetricsJSON()
		if err != nil {
			return err
		}
		s.out.Write(blob)
		fmt.Fprintln(s.out)
		return nil
	}
	text := s.project.MetricsText()
	if text == "" {
		fmt.Fprintln(s.out, "no metrics recorded yet")
		return nil
	}
	fmt.Fprint(s.out, text)
	return nil
}

func (s *session) trace(args []string) error {
	depth := 0
	if len(args) == 1 {
		d, err := strconv.Atoi(args[0])
		if err != nil || d < 1 {
			return fmt.Errorf("bad depth %q", args[0])
		}
		depth = d
	} else if len(args) > 1 {
		return fmt.Errorf("usage: trace [max-depth]")
	}
	tree := s.project.TraceTree(depth)
	if tree == "" {
		fmt.Fprintln(s.out, "no spans recorded yet")
		return nil
	}
	fmt.Fprint(s.out, tree)
	if n := s.project.TraceDropped(); n > 0 {
		fmt.Fprintf(s.out, "(%d span(s) dropped over the retention bound)\n", n)
	}
	return nil
}

// flight prints the project's flight recorder: the most recent facade
// operations and the slowest retained ones, one line each.
func (s *session) flight(args []string) error {
	if len(args) != 0 {
		return fmt.Errorf("usage: flight")
	}
	recent, slowest := s.project.FlightRecords()
	if len(recent) == 0 && len(slowest) == 0 {
		fmt.Fprintln(s.out, "no operations recorded yet")
		return nil
	}
	fmt.Fprint(s.out, s.project.FlightText())
	return nil
}

// events prints only the manager events appended since the last call.
// EventsPage hands back the next cursor alongside the page, so the
// session never has to reconstruct it from the slice length.
func (s *session) events(args []string) error {
	if len(args) != 0 {
		return fmt.Errorf("usage: events")
	}
	evs, next := s.project.EventsPage(s.eventSeq)
	if len(evs) == 0 {
		fmt.Fprintln(s.out, "no new events")
		return nil
	}
	s.eventSeq = next
	for _, e := range evs {
		act := e.Activity
		if act == "" {
			act = "-"
		}
		fmt.Fprintf(s.out, "  %s  %-20s %-12s %s\n",
			e.At.Format("2006-01-02 15:04"), e.Kind, act, e.Detail)
	}
	return nil
}

func username() string {
	if u := os.Getenv("USER"); u != "" {
		return u
	}
	return "designer"
}
