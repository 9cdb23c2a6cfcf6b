package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Every round starts a child process (this binary with -client). It
// runs the host-speed calibration (see calib.go), so that the
// calibration's garbage collection never walks the server's heap, and
// in untraced rounds it is also the load generator, so the server
// process's CPU time and live heap are the program's alone: the HTTP
// client transport, reading the bodies, the body checks and the
// latency samples are the child's. Traced rounds keep the clients in
// process, because each operation's in-process layer calls must follow
// it on the same goroutine.
//
// The protocol over the child's stdin and stdout, one line each:
//
//	child → "ready"              plan generated, HTTP client built
//	parent → "calibrate"         child → calibration JSON
//	parent → "run " + base URL   child → clientReport JSON, once every client has finished
//
// The child exits when its stdin is closed.
//
// A run splits every client's sequence into runSegments equal parts and
// calibrates before each part and after the last, with the clients
// paused, so the round's calibrations sample the host's speed all
// through the timed phase and not only at its ends.

// clientReport is what the client process sends back after a run.
type clientReport struct {
	Samples []wireSample      `json:"samples"`
	Sums    map[string]string `json:"sums"` // first body checksum per compared input
	Errs    []string          `json:"errs"`
	CPU     time.Duration     `json:"cpu"` // the client process's CPU time over the segments
	Cals    []calibration     `json:"cals"`
	CalWall time.Duration     `json:"cal_wall"` // wall time spent calibrating
}

const runSegments = 4

type wireSample struct {
	Kind  string        `json:"k"`
	Route string        `json:"r"`
	Lat   time.Duration `json:"l"`
	OK    bool          `json:"ok"`
	Cache string        `json:"c,omitempty"`
}

// clientMain is the client process: it regenerates the round's plan
// from the seed and answers the parent's requests.
func clientMain(w *workload, seed int64) error {
	pl := w.gen(newRand(seed))
	e := &env{client: newHTTPClient()}
	defer e.client.CloseIdleConnections()
	srv, err := startCalServer()
	if err != nil {
		return err
	}
	defer srv.close()
	cal := func() (calibration, error) {
		// Start from a collected heap, so the calibration's own
		// collections find the same heap every time.
		runtime.GC()
		return calibrate(len(pl.clients), e.client, srv.url)
	}
	out := json.NewEncoder(os.Stdout)
	if _, err := fmt.Println("ready"); err != nil {
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		cmd, arg, _ := strings.Cut(in.Text(), " ")
		var reply any
		switch cmd {
		case "calibrate":
			c, err := cal()
			if err != nil {
				return err
			}
			reply = c
		case "run":
			e.base = arg
			rep, err := runClients(e, w, pl.clients, cal)
			if err != nil {
				return err
			}
			reply = rep
		default:
			return fmt.Errorf("unknown request %q", cmd)
		}
		if err := out.Encode(reply); err != nil {
			return err
		}
	}
	return in.Err()
}

// runClients runs every client's sequence at once, in runSegments
// parts with a calibration before each part and after the last, and
// reports.
func runClients(e *env, w *workload, clients [][]op, cal func() (calibration, error)) (clientReport, error) {
	chk := newChecker()
	rep := clientReport{}
	calibrate := func() error {
		t := time.Now()
		c, err := cal()
		rep.Cals = append(rep.Cals, c)
		rep.CalWall += time.Since(t)
		return err
	}
	per := make([][]sample, len(clients))
	last := make([]uint64, len(clients))
	for seg := 0; seg < runSegments; seg++ {
		if err := calibrate(); err != nil {
			return rep, err
		}
		c0 := cpuTime()
		var wg sync.WaitGroup
		for i, seq := range clients {
			part := seq[seg*len(seq)/runSegments : (seg+1)*len(seq)/runSegments]
			wg.Add(1)
			go func(i int, part []op) {
				defer wg.Done()
				var s []sample
				s, last[i] = e.runClient(w, part, chk, last[i])
				per[i] = append(per[i], s...)
			}(i, part)
		}
		wg.Wait()
		rep.CPU += cpuTime() - c0
	}
	if err := calibrate(); err != nil {
		return rep, err
	}
	rep.Sums, rep.Errs = chk.sums, chk.errs
	for _, s := range per {
		for _, x := range s {
			rep.Samples = append(rep.Samples, wireSample{x.kind, x.route, x.lat, x.ok, x.cache})
		}
	}
	return rep, nil
}

// clientProc is a started client process.
type clientProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *json.Decoder
}

// startClient starts the client process for w and seed and waits until
// it is ready, so its start-up is not counted in the round.
func startClient(w *workload, seed int64) (_ *clientProc, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-client", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	c := &clientProc{cmd: cmd}
	if c.stdin, err = cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			c.stop()
		}
	}()
	r := bufio.NewReaderSize(stdout, 1<<20)
	line, err := r.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "ready" {
		return nil, fmt.Errorf("client process did not start: %q %v", line, err)
	}
	c.out = json.NewDecoder(r)
	return c, nil
}

// request sends one request line and decodes the reply into v.
func (c *clientProc) request(line string, v any) error {
	if _, err := io.WriteString(c.stdin, line+"\n"); err != nil {
		return err
	}
	if err := c.out.Decode(v); err != nil {
		return fmt.Errorf("client process reply to %q: %w", strings.Fields(line)[0], err)
	}
	return nil
}

// calibrate runs the calibration.
func (c *clientProc) calibrate() (calibration, error) {
	var cal calibration
	err := c.request("calibrate", &cal)
	return cal, err
}

// run runs the timed phase against base.
func (c *clientProc) run(base string) (clientReport, error) {
	var rep clientReport
	err := c.request("run "+base, &rep)
	return rep, err
}

// stop closes the client process's stdin, which ends it, and waits for
// it to exit, killing it if it does not within a few seconds.
func (c *clientProc) stop() error {
	c.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		if err := c.cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
			fmt.Fprintf(os.Stderr, "perfbench: killing client process: %v\n", err)
		}
		<-done
		return errors.New("client process did not exit")
	}
}

// newHTTPClient is the client every load generator uses: keep-alive
// connections, enough idle ones for two clients and the follower.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
}
