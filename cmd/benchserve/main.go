// Command benchserve measures the HTTP serving layer with a closed-loop
// load harness and records the numbers in BENCH_serve.json, the repo's
// performance-trajectory file for the serve path. The server runs on a
// real TCP listener; N clients each keep exactly one request in flight
// (closed loop), so req/s and tail latency reflect the full
// snapshot-render-respond path rather than queueing artifacts.
//
// Every cell is measured twice: cold (the response cache disabled, each
// request renders from its own snapshot) and cached (the cache warmed,
// each request served from it), over the cheap /dashboard render and
// the expensive /risk Monte-Carlo render.
//
// A third mode, edit-read, interleaves an unrelated store mutation
// before every /risk read, so each request lands on a fresh store
// version. /risk's cache key is its risk-input fingerprint rather than
// the snapshot, so it keeps the Monte-Carlo off the hot path; the cell
// records what fraction of reads it absorbed.
//
// A final pair of modes prices the request-observability layer itself:
// the warmed /dashboard cell — the cheapest render, where per-request
// tracing and flight recording are the largest relative cost — is
// measured instrumented (the default) and bare
// (Options.DisableRequestObs), and the throughput delta printed.
//
// -write-mix swaps the read sweep for the mutating surface: pure
// serialized write throughput (POST /milestone), an alternating
// write/read mix, and SSE fan-out — N held /events streams while a
// writer commits at full tilt, recording writer throughput and the
// aggregate delivery rate.
//
//	benchserve -label after-serve                # append to BENCH_serve.json
//	benchserve -clients 1,4,16 -dur 2s           # custom sweep
//	benchserve -write-mix                        # write + SSE fan-out cells
//	benchserve -out /tmp/b.json                  # write elsewhere
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flowsched"
	"flowsched/internal/serve"
)

// cell is one measured (route, mode, clients) combination.
type cell struct {
	Route     string  `json:"route"`
	Mode      string  `json:"mode"` // "cold" (cache off), "cached" (warmed), "edit-read", "instrumented", or "bare" (request obs off)
	Clients   int     `json:"clients"`
	Requests  int     `json:"requests"`
	ReqPerSec float64 `json:"req_per_sec"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	// FingerprintHitPct is the share of requests the fingerprint tier
	// answered (edit-read mode only): reads that skipped the simulation
	// even though every one of them saw a fresh store version.
	FingerprintHitPct float64 `json:"fingerprint_hit_pct,omitempty"`
	// ShedPct is the share of requests shed with 503 (-overload mode
	// only); ReqPerSec then counts goodput — successful responses.
	ShedPct float64 `json:"shed_pct,omitempty"`
	// EventsPerSec is the aggregate SSE delivery rate across all
	// subscribers (-write-mix sse-fanout cell only): events received
	// per second while a writer commits at full tilt.
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// entry is one benchserve invocation.
type entry struct {
	Label     string `json:"label"`
	Date      string `json:"date"`
	GoVersion string `json:"go"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	Results   []cell `json:"results"`
}

// file is the BENCH_serve.json document.
type file struct {
	Description string  `json:"description"`
	Benchmarks  []entry `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "BENCH_serve.json", "trajectory file to append to")
	label := flag.String("label", "run", "label for this entry")
	clientsFlag := flag.String("clients", "1,4,16", "comma-separated closed-loop client counts")
	dur := flag.Duration("dur", 2*time.Second, "measurement window per cell")
	trials := flag.Int("trials", 1000, "Monte-Carlo trials for the /risk route")
	overload := flag.Bool("overload", false, "measure admission control under overload instead of the standard sweep")
	writeMix := flag.Bool("write-mix", false, "measure the mutating routes and SSE fan-out instead of the standard sweep")
	flag.Parse()

	clients, err := parseInts(*clientsFlag)
	if err != nil {
		fatal("bad -clients: %v", err)
	}

	// Validate the trajectory file before spending time on the sweep.
	doc := file{Description: "HTTP serving layer load trajectory (cmd/benchserve closed loop over a tracked fig4 project)"}
	if blob, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(blob, &doc); err != nil {
			fatal("existing %s is not a benchserve file: %v", *out, err)
		}
	}

	p, err := trackedProject()
	if err != nil {
		fatal("%v", err)
	}

	if *overload {
		e := entry{
			Label: *label + "-overload", Date: time.Now().UTC().Format("2006-01-02"),
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			CPUs: runtime.NumCPU(),
		}
		e.Results = runOverload(p, *dur, *trials)
		doc.Benchmarks = append(doc.Benchmarks, e)
		writeDoc(*out, doc)
		fmt.Printf("appended entry %q to %s\n", e.Label, *out)
		return
	}

	if *writeMix {
		e := entry{
			Label: *label + "-write-mix", Date: time.Now().UTC().Format("2006-01-02"),
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			CPUs: runtime.NumCPU(),
		}
		e.Results = runWriteMix(clients, *dur)
		doc.Benchmarks = append(doc.Benchmarks, e)
		writeDoc(*out, doc)
		fmt.Printf("appended entry %q to %s\n", e.Label, *out)
		return
	}

	routes := []string{
		"/dashboard",
		fmt.Sprintf("/risk?trials=%d&seed=1995", *trials),
	}

	e := entry{
		Label: *label, Date: time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUs: runtime.NumCPU(),
	}
	for _, mode := range []string{"cold", "cached"} {
		base, shutdown, err := startServer(p, mode == "cold", false)
		if err != nil {
			fatal("%v", err)
		}
		for _, route := range routes {
			if mode == "cached" {
				// Warm the memo so the window measures pure hits.
				if err := getOnce(base + route); err != nil {
					fatal("warm %s: %v", route, err)
				}
			}
			for _, n := range clients {
				c := hammer(base, route, mode, n, *dur, nil)
				fmt.Printf("%-28s %-7s clients=%-3d %9.0f req/s  p50 %7.3f ms  p99 %7.3f ms\n",
					route, mode, n, c.ReqPerSec, c.P50Ms, c.P99Ms)
				e.Results = append(e.Results, c)
			}
		}
		shutdown()
	}

	// edit-read: a store mutation before every /risk read. The mutation
	// (a milestone write) advances the store version but leaves the risk
	// inputs alone, so the fingerprint key is the only thing between
	// the reader and a fresh Monte-Carlo run.
	{
		base, shutdown, err := startServer(p, false, false)
		if err != nil {
			fatal("%v", err)
		}
		route := routes[1]
		if err := getOnce(base + route); err != nil {
			fatal("warm %s: %v", route, err)
		}
		var seq atomic.Int64
		edit := func() {
			target := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC).
				Add(time.Duration(seq.Add(1)) * time.Second)
			if err := p.SetMilestone("bench-edit", "performance", target); err != nil {
				fatal("edit: %v", err)
			}
		}
		const fpHits = `serve_cache_events_total{event="hit",tier="fingerprint"}`
		for _, n := range clients {
			h0 := scrapeCounter(base, fpHits)
			c := hammer(base, route, "edit-read", n, *dur, edit)
			h1 := scrapeCounter(base, fpHits)
			if c.Requests > 0 {
				c.FingerprintHitPct = 100 * float64(h1-h0) / float64(c.Requests)
			}
			fmt.Printf("%-28s %-7s clients=%-3d %9.0f req/s  p50 %7.3f ms  p99 %7.3f ms  fp-hit %5.1f%%\n",
				route, c.Mode, n, c.ReqPerSec, c.P50Ms, c.P99Ms, c.FingerprintHitPct)
			e.Results = append(e.Results, c)
		}
		shutdown()
	}

	// instrumented vs bare: the request-observability overhead on the
	// cheapest (memo-hit) render, where it is proportionally largest.
	// A fresh project keeps the comparison clean — the edit-read phase
	// above left thousands of milestone writes on the shared one, which
	// would swamp both sides with render weight.
	{
		p2, err := trackedProject()
		if err != nil {
			fatal("%v", err)
		}
		rps := map[string]float64{}
		for _, mode := range []string{"instrumented", "bare"} {
			base, shutdown, err := startServer(p2, false, mode == "bare")
			if err != nil {
				fatal("%v", err)
			}
			if err := getOnce(base + "/dashboard"); err != nil {
				fatal("warm /dashboard: %v", err)
			}
			n := clients[len(clients)-1]
			c := hammer(base, "/dashboard", mode, n, *dur, nil)
			fmt.Printf("%-28s %-12s clients=%-3d %9.0f req/s  p50 %7.3f ms  p99 %7.3f ms\n",
				"/dashboard", mode, n, c.ReqPerSec, c.P50Ms, c.P99Ms)
			e.Results = append(e.Results, c)
			rps[mode] = c.ReqPerSec
			shutdown()
		}
		if rps["bare"] > 0 {
			fmt.Printf("request-observability overhead: %.1f%% of bare throughput\n",
				100*(1-rps["instrumented"]/rps["bare"]))
		}
	}

	doc.Benchmarks = append(doc.Benchmarks, e)
	writeDoc(*out, doc)
	fmt.Printf("appended entry %q to %s\n", *label, *out)
}

func writeDoc(out string, doc file) {
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		fatal("%v", err)
	}
}

// runWriteMix prices the mutating surface and the event stream:
//
//   - write: closed-loop POST /milestone (unique names, so every
//     request commits and bumps the store version) — pure serialized
//     write throughput through the write lock.
//   - write-mix: each client alternates POST /milestone and
//     GET /status — writes invalidating the memo under concurrent
//     snapshot reads, the designer-facing steady state.
//   - sse-fanout: N subscribers hold /events SSE streams while one
//     writer POSTs /import at full tilt; the cell records the writer's
//     throughput with fan-out active and the aggregate delivery rate
//     across subscribers.
//
// Each cell runs on a fresh project so accumulated milestones from one
// cell do not inflate render weight in the next.
func runWriteMix(clients []int, window time.Duration) []cell {
	var out []cell
	var seq atomic.Int64
	milestoneURL := func(base string) string {
		n := seq.Add(1)
		target := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(n) * time.Second)
		return fmt.Sprintf("%s/milestone?name=bench-w-%d&class=performance&target=%s",
			base, n, target.Format(time.RFC3339))
	}

	for _, mode := range []string{"write", "write-mix"} {
		p, err := trackedProject()
		if err != nil {
			fatal("%v", err)
		}
		base, shutdown, err := startServer(p, false, false)
		if err != nil {
			fatal("%v", err)
		}
		for _, n := range clients {
			c := hammerOps(mode, n, window, func(i, iter int, cl *http.Client) (string, error) {
				if mode == "write-mix" && iter%2 == 1 {
					return base + "/status", getWith(cl, base+"/status")
				}
				return "/milestone", postWith(cl, milestoneURL(base))
			})
			c.Route = "/milestone"
			if mode == "write-mix" {
				c.Route = "/milestone+/status"
			}
			fmt.Printf("%-28s %-10s clients=%-3d %9.0f req/s  p50 %7.3f ms  p99 %7.3f ms\n",
				c.Route, mode, n, c.ReqPerSec, c.P50Ms, c.P99Ms)
			out = append(out, c)
		}
		shutdown()
	}

	// SSE fan-out at the largest client count.
	subs := clients[len(clients)-1]
	p, err := trackedProject()
	if err != nil {
		fatal("%v", err)
	}
	base, shutdown, err := startServer(p, false, false)
	if err != nil {
		fatal("%v", err)
	}
	c := sseFanout(base, subs, window)
	fmt.Printf("%-28s %-10s subs=%-5d %9.0f writes/s  %9.0f events/s delivered\n",
		c.Route, c.Mode, subs, c.ReqPerSec, c.EventsPerSec)
	out = append(out, c)
	shutdown()
	return out
}

// hammerOps is the generic closed loop: n clients each run op
// back-to-back for the window; op returns the label only for error
// reporting. All per-request latencies pool into one distribution.
func hammerOps(mode string, n int, window time.Duration, op func(i, iter int, cl *http.Client) (string, error)) cell {
	perClient := make([][]time.Duration, n)
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := &http.Client{}
			for iter := 0; time.Now().Before(deadline); iter++ {
				t0 := time.Now()
				if label, err := op(i, iter, client); err != nil {
					fatal("%s: %v", label, err)
				}
				perClient[i] = append(perClient[i], time.Since(t0))
			}
		}(i)
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)

	var lat []time.Duration
	for _, l := range perClient {
		lat = append(lat, l...)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return cell{
		Mode: mode, Clients: n, Requests: len(lat),
		ReqPerSec: float64(len(lat)) / elapsed.Seconds(),
		P50Ms:     ms(percentile(lat, 0.50)),
		P99Ms:     ms(percentile(lat, 0.99)),
	}
}

// sseFanout holds subs event streams open while one writer imports at
// full tilt, and measures both sides: writer throughput with fan-out
// active, and aggregate SSE delivery across subscribers.
func sseFanout(base string, subs int, window time.Duration) cell {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var delivered atomic.Int64
	var wg sync.WaitGroup
	ready := make(chan struct{}, subs)
	for i := 0; i < subs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/events?stream=sse", nil)
			if err != nil {
				fatal("sse request: %v", err)
			}
			req.Header.Set("Accept", "text/event-stream")
			res, err := http.DefaultClient.Do(req)
			if err != nil {
				fatal("GET /events: %v", err)
			}
			defer res.Body.Close()
			if res.StatusCode != http.StatusOK {
				fatal("GET /events: status %d", res.StatusCode)
			}
			ready <- struct{}{}
			sc := bufio.NewScanner(res.Body)
			for sc.Scan() {
				if strings.HasPrefix(sc.Text(), "data:") {
					delivered.Add(1)
				}
			}
		}()
	}
	for i := 0; i < subs; i++ {
		<-ready
	}

	writes := 0
	cl := &http.Client{}
	start := time.Now()
	deadline := start.Add(window)
	for time.Now().Before(deadline) {
		if err := postBodyWith(cl, base+"/import?class=stimuli", "pulse 0 5 1ns"); err != nil {
			fatal("POST /import: %v", err)
		}
		writes++
	}
	elapsed := time.Since(start)
	// Give in-flight deliveries a beat to land before tearing streams down.
	time.Sleep(100 * time.Millisecond)
	cancel()
	wg.Wait()

	return cell{
		Route: "/events (sse)", Mode: "sse-fanout", Clients: subs, Requests: writes,
		ReqPerSec:    float64(writes) / elapsed.Seconds(),
		EventsPerSec: float64(delivered.Load()) / elapsed.Seconds(),
	}
}

// runOverload measures what admission control buys: the same /risk
// closed loop at the server's configured capacity and at twice it. An
// overload-safe server sheds the excess (503 + Retry-After) and keeps
// goodput — successful responses per second — near the capacity-limit
// number instead of collapsing under queueing.
func runOverload(p *flowsched.Project, window time.Duration, trials int) []cell {
	// Capacity 16 admits two /risk renders (weight 8 each) at a time
	// with a two-deep wait queue: four closed-loop clients saturate it
	// without shedding, eight force continuous shed decisions.
	const maxInFlight, queueDepth, capacityClients = 16, 2, 4
	route := fmt.Sprintf("/risk?trials=%d&seed=1995", trials)

	s := serve.New(p, serve.Options{
		DisableCache: true, MaxInFlight: maxInFlight, QueueDepth: queueDepth,
		RetryAfter: 10 * time.Millisecond,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal("%v", err)
	}
	go s.Serve(l)
	defer l.Close()
	base := "http://" + l.Addr().String()

	var out []cell
	for _, run := range []struct {
		mode    string
		clients int
	}{
		{"overload-capacity", capacityClients},
		{"overload-2x", 2 * capacityClients},
	} {
		c := hammerOverload(base, route, run.mode, run.clients, window)
		fmt.Printf("%-28s %-18s clients=%-3d %9.0f good req/s  p50 %7.3f ms  p99 %7.3f ms  shed %5.1f%%\n",
			route, run.mode, run.clients, c.ReqPerSec, c.P50Ms, c.P99Ms, c.ShedPct)
		out = append(out, c)
	}
	if cap0, twox := out[0].ReqPerSec, out[1].ReqPerSec; cap0 > 0 {
		fmt.Printf("goodput under 2x overload: %.1f%% of capacity-limit goodput\n", 100*twox/cap0)
	}
	return out
}

// hammerOverload is the shed-tolerant closed loop: 503s are counted,
// backed off briefly, and excluded from goodput and latency; any other
// non-200 is fatal.
func hammerOverload(base, route, mode string, n int, window time.Duration) cell {
	perClient := make([][]time.Duration, n)
	shedByClient := make([]int, n)
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := &http.Client{}
			for time.Now().Before(deadline) {
				t0 := time.Now()
				res, err := client.Get(base + route)
				if err != nil {
					fatal("GET %s: %v", route, err)
				}
				io.Copy(io.Discard, res.Body)
				res.Body.Close()
				switch res.StatusCode {
				case http.StatusOK:
					perClient[i] = append(perClient[i], time.Since(t0))
				case http.StatusServiceUnavailable:
					shedByClient[i]++
					time.Sleep(2 * time.Millisecond)
				default:
					fatal("GET %s: status %d", route, res.StatusCode)
				}
			}
		}(i)
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)

	var lat []time.Duration
	shed := 0
	for i, l := range perClient {
		lat = append(lat, l...)
		shed += shedByClient[i]
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	c := cell{
		Route: route, Mode: mode, Clients: n, Requests: len(lat) + shed,
		ReqPerSec: float64(len(lat)) / elapsed.Seconds(),
		P50Ms:     ms(percentile(lat, 0.50)),
		P99Ms:     ms(percentile(lat, 0.99)),
	}
	if c.Requests > 0 {
		c.ShedPct = 100 * float64(shed) / float64(c.Requests)
	}
	return c
}

// trackedProject builds the serve workload: a fig4 project with one
// tracked run completed, so /dashboard and /risk have real content.
func trackedProject() (*flowsched.Project, error) {
	p, err := flowsched.New(flowsched.Fig4Schema, flowsched.Options{
		Designer: "bench", Obs: flowsched.ObsOptions{Enabled: true},
	})
	if err != nil {
		return nil, err
	}
	if err := p.UseSimulatedTools(); err != nil {
		return nil, err
	}
	if _, err := p.Import("stimuli", []byte("pulse 0 5 1ns")); err != nil {
		return nil, err
	}
	if _, err := p.Plan([]string{"performance"}, flowsched.Fixed{Default: 8 * time.Hour}, flowsched.PlanOptions{}); err != nil {
		return nil, err
	}
	if _, err := p.Run([]string{"performance"}, true); err != nil {
		return nil, err
	}
	return p, nil
}

// startServer serves p on an ephemeral local port and returns the base
// URL plus a shutdown func.
func startServer(p *flowsched.Project, disableCache, disableReqObs bool) (string, func(), error) {
	s := serve.New(p, serve.Options{DisableCache: disableCache, DisableRequestObs: disableReqObs})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	go s.Serve(l)
	return "http://" + l.Addr().String(), func() { l.Close() }, nil
}

// hammer runs n closed-loop clients against one route for the window
// and reduces their per-request latencies to throughput and tails. A
// non-nil pre runs before every request (off the latency clock for the
// mutation itself would be dishonest — the edit is part of the
// workload, so it is timed with the read).
func hammer(base, route, mode string, n int, window time.Duration, pre func()) cell {
	perClient := make([][]time.Duration, n)
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := &http.Client{}
			for time.Now().Before(deadline) {
				t0 := time.Now()
				if pre != nil {
					pre()
				}
				if err := getWith(client, base+route); err != nil {
					fatal("GET %s: %v", route, err)
				}
				perClient[i] = append(perClient[i], time.Since(t0))
			}
		}(i)
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)

	var lat []time.Duration
	for _, l := range perClient {
		lat = append(lat, l...)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return cell{
		Route: route, Mode: mode, Clients: n, Requests: len(lat),
		ReqPerSec: float64(len(lat)) / elapsed.Seconds(),
		P50Ms:     ms(percentile(lat, 0.50)),
		P99Ms:     ms(percentile(lat, 0.99)),
	}
}

func getOnce(url string) error { return getWith(http.DefaultClient, url) }

// postBodyWith POSTs a small body and drains the response, failing on
// any non-200.
func postBodyWith(c *http.Client, url, body string) error {
	res, err := c.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if _, err := io.Copy(io.Discard, res.Body); err != nil {
		return err
	}
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", res.StatusCode)
	}
	return nil
}

func postWith(c *http.Client, url string) error { return postBodyWith(c, url, "") }

// scrapeCounter reads one counter off the server's /metrics page.
func scrapeCounter(base, name string) int64 {
	res, err := http.Get(base + "/metrics")
	if err != nil {
		fatal("GET /metrics: %v", err)
	}
	defer res.Body.Close()
	blob, err := io.ReadAll(res.Body)
	if err != nil {
		fatal("read /metrics: %v", err)
	}
	for _, line := range strings.Split(string(blob), "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && f[0] == name {
			v, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				fatal("bad %s value %q", name, f[1])
			}
			return v
		}
	}
	return 0
}

func getWith(c *http.Client, url string) error {
	res, err := c.Get(url)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if _, err := io.Copy(io.Discard, res.Body); err != nil {
		return err
	}
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", res.StatusCode)
	}
	return nil
}

func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad count %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchserve: "+format+"\n", args...)
	os.Exit(1)
}
