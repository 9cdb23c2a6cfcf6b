package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Host-speed calibration. On a machine shared with other tenants the
// same code runs at very different speeds from one hour to the next:
// on the 2-vCPU host this benchmark was written on, ten-seed sets of
// identical runs taken twenty minutes apart had every time median (CPU
// per operation included) differ by up to about twice, far more than
// any spread within a set, while /proc/stat showed almost no steal. So each
// round also times a fixed piece of work that does not touch
// flowsched, and scales the round's times by how much slower or faster
// than the reference that work ran. A change to flowsched moves the
// scaled times; a slower period of the host moves the calibration with
// them and largely cancels out.
//
// The calibration has three parts, each at the workload's concurrency
// (one goroutine or client per workload client), run in the client
// process, whose heap is small and the same in every round:
//
//   - compute: JSON encoding and decoding of small records with times in
//     them, maps and sorting, and the allocation and garbage collection
//     these cause, timed by the wall clock;
//   - the same compute, timed by the process's CPU time;
//   - loopback HTTP requests to the benchmark's own trivial server
//     (calServer), timed by the wall clock.
//
// Different kinds of work slow down by different factors in a slow
// period (request round trips more than computation), and no single
// part tracked every metric on every workload best. Over an hour of
// runs in which the raw medians of one workload moved by up to 48%,
// the geometric mean of the three speed ratios kept every scaled
// median within 16% (most within 10%), so every gated time is scaled
// by that one index. While the host's speed changed within seconds,
// calibrating only at a round's ends left ten runs' scaled medians
// spread by 0.10-0.13 (quartile distance over median); calibrating
// also between segments of the timed phase (see client.go) brought
// the latencies and CPU per operation to 0.03-0.06.

// calRecord is one row of the calibration's data.
type calRecord struct {
	Name     string    `json:"name"`
	Class    string    `json:"class"`
	Start    time.Time `json:"start"`
	Duration float64   `json:"duration"`
	Deps     []int     `json:"deps"`
}

// Reference calibration times, per goroutine or client. They define
// the reference host: a scaled time is the time the operation would
// have taken on a host where the calibration takes exactly these
// times. They are round figures near the calibration's times on an
// idle 2-vCPU x86-64 virtual machine; `perfbench -calibrate` prints the
// calibration's times on the host it runs on.
const (
	calRefWall  = 32 * time.Millisecond // calReps compute passes
	calRefCPU   = 32 * time.Millisecond // the same, CPU time
	calRefHTTP  = 30 * time.Millisecond // calRequests requests
	calReps     = 60                    // compute passes per goroutine
	calRequests = 300                   // requests per client
	calRows     = 200
)

// calRows rows, the same in every run.
var calData = func() []calRecord {
	t0 := time.Date(2024, 1, 1, 9, 0, 0, 0, time.UTC)
	rows := make([]calRecord, calRows)
	for i := range rows {
		rows[i] = calRecord{
			Name:     fmt.Sprintf("activity-%03d", i),
			Class:    []string{"rtl", "netlist", "layout", "report"}[i%4],
			Start:    t0.Add(time.Duration(i*37) * time.Minute),
			Duration: float64(i%13) * 1.5,
			Deps:     []int{i / 2, i / 3, i / 5},
		}
	}
	return rows
}()

// calPass is one pass of the calibration work; the returned value keeps
// the compiler from discarding it.
func calPass() int {
	b, err := json.Marshal(calData)
	if err != nil {
		panic(err)
	}
	var back []calRecord
	if err := json.Unmarshal(b, &back); err != nil {
		panic(err)
	}
	byName := make(map[string]*calRecord, len(back))
	for i := range back {
		byName[back[i].Name] = &back[i]
	}
	sort.Slice(back, func(i, j int) bool {
		if back[i].Class != back[j].Class {
			return back[i].Class < back[j].Class
		}
		return back[i].Start.After(back[j].Start)
	})
	n := len(b)
	for _, r := range back {
		n += len(byName[r.Name].Deps)
	}
	return n
}

// calibration is one timing of the calibration work at concurrency N.
type calibration struct {
	N    int           `json:"n"`
	Wall time.Duration `json:"wall"` // calReps compute passes per goroutine, wall clock
	CPU  time.Duration `json:"cpu"`  // the same, process CPU time
	HTTP time.Duration `json:"http"` // calRequests loopback requests per client, wall clock
}

// calServer is the benchmark's own loopback HTTP server for the
// calibration's requests: one handler encoding calibration rows, the
// request path of a server without any of flowsched's code. It runs in
// the client process, so that calibrating between segments of the
// timed phase costs the server process nothing.
type calServer struct {
	srv    *http.Server
	served chan error
	url    string
}

func startCalServer() (*calServer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &calServer{
		srv: &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(calData[:40])
		})},
		served: make(chan error, 1),
		url:    "http://" + l.Addr().String() + "/",
	}
	go func() { c.served <- c.srv.Serve(l) }()
	return c, nil
}

func (c *calServer) close() error {
	err := c.srv.Close()
	if serr := <-c.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// concurrently runs fn on n goroutines at once and returns their errors.
func concurrently(n int, fn func() error) error {
	procs := n
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = fn()
		}(p)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func calPasses() error {
	n := 0
	for i := 0; i < calReps; i++ {
		n += calPass()
	}
	if n == 0 {
		return errors.New("calibration did no work")
	}
	return nil
}

// calibrate times the calibration work on n goroutines at once: compute,
// by the wall clock and by the CPU time of the process it runs in, and
// requests to url.
func calibrate(n int, client *http.Client, url string) (calibration, error) {
	cal := calibration{N: n}
	c0, t0 := cpuTime(), time.Now()
	if err := concurrently(n, calPasses); err != nil {
		return cal, err
	}
	cal.Wall, cal.CPU = time.Since(t0), cpuTime()-c0
	t0 = time.Now()
	err := concurrently(n, func() error {
		for i := 0; i < calRequests; i++ {
			resp, err := client.Get(url)
			if err != nil {
				return err
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
		}
		return nil
	})
	cal.HTTP = time.Since(t0)
	return cal, err
}

// speed is a round's calibration summary: per part, the reference
// time over the median measured time, and Index, their geometric mean,
// the factor that turns a raw time into the reference host's time.
type speed struct {
	Wall  float64 `json:"wall"`
	CPU   float64 `json:"cpu"`
	HTTP  float64 `json:"http"`
	Index float64 `json:"index"`
}

func speedOf(cals []calibration) speed {
	ratio := func(ref time.Duration, f func(calibration) time.Duration) float64 {
		var xs []float64
		for _, c := range cals {
			xs = append(xs, float64(f(c)))
		}
		return float64(ref) / median(xs)
	}
	n := time.Duration(cals[0].N)
	s := speed{
		Wall: ratio(calRefWall, func(c calibration) time.Duration { return c.Wall }),
		CPU:  ratio(n*calRefCPU, func(c calibration) time.Duration { return c.CPU }),
		HTTP: ratio(calRefHTTP, func(c calibration) time.Duration { return c.HTTP }),
	}
	s.Index = math.Cbrt(s.Wall * s.CPU * s.HTTP)
	return s
}

// printCalibration prints calibrations at both concurrencies the
// workloads use against the reference.
func printCalibration() error {
	srv, err := startCalServer()
	if err != nil {
		return err
	}
	defer srv.close()
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	for _, n := range []int{1, 2} {
		fmt.Printf("reference: %+v\n", calibration{n, calRefWall, time.Duration(n) * calRefCPU, calRefHTTP})
		for i := 0; i < 5; i++ {
			runtime.GC()
			cal, err := calibrate(n, client, srv.url)
			if err != nil {
				return err
			}
			fmt.Printf("measured:  %+v  index %.3f\n", cal, speedOf([]calibration{cal}).Index)
		}
	}
	return nil
}
