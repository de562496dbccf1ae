package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"sicost/internal/server"
)

// TestSisqldEndToEnd drives the real binary over real TCP: build it,
// start it on an ephemeral port, hammer it with SmallBank transfer
// clients, SIGTERM it mid-load, and assert the drain completes with a
// clean exit code and no leak reported. This is the deployment story —
// process boundary, signal handling, socket teardown — that in-process
// tests cannot vouch for.
func TestSisqldEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the sisqld binary")
	}
	d := startSisqld(t, "-customers", "100",
		"-idle-timeout", "2s", "-stmt-deadline", "2s", "-drain", "1s")
	addr := d.addr

	// The load: clients running zero-sum transfers until the server goes
	// away. Tolerant of every failure mode — the assertion is on the
	// server's exit, not on any individual client's fortune.
	var commits atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for id := 0; id < 8; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id) + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if runTransfers(addr, rng, stop, &commits) {
					return // server gone for good
				}
			}
		}(id)
	}

	// Let the storm establish, then deliver the signal under load.
	deadline := time.Now().Add(3 * time.Second)
	for commits.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if commits.Load() == 0 {
		t.Fatalf("no client ever committed; stderr:\n%s", d.stderr.String())
	}
	summary := d.terminate(t, func() {
		close(stop)
		wg.Wait()
	})
	t.Logf("%d commits under load; %s", commits.Load(), summary)
}

// sisqld is the real binary, running.
type sisqld struct {
	cmd    *exec.Cmd
	addr   string // where it listens for SQL
	stderr bytes.Buffer

	outMu   sync.Mutex
	outRest []string // stdout after the listening line
}

// startSisqld builds the daemon, starts it on an ephemeral port with the
// given further flags and returns once it has announced its address.
func startSisqld(t *testing.T, args ...string) *sisqld {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sisqld")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	d := &sisqld{cmd: exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.cmd.Process.Kill() })

	// The first stdout line announces the ephemeral address.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no listening line; stderr:\n%s", d.stderr.String())
	}
	line := sc.Text()
	d.addr = strings.TrimPrefix(line, "sisqld: listening on ")
	if d.addr == line {
		t.Fatalf("unexpected first line %q", line)
	}
	// Keep draining stdout so the process never blocks on a full pipe,
	// and capture the drain summary for the final assertions.
	go func() {
		for sc.Scan() {
			d.outMu.Lock()
			d.outRest = append(d.outRest, sc.Text())
			d.outMu.Unlock()
		}
	}()
	return d
}

// terminate delivers SIGTERM, waits for the daemon to exit, then runs
// stopClients, and returns the rest of its standard output. It fails the
// test unless the drain completed and the exit was clean: sisqld exits 1
// when its admission gate or the engine's transaction table is not empty
// after the drain.
func (d *sisqld) terminate(t *testing.T, stopClients func()) string {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	werr := d.cmd.Wait()
	stopClients()
	if werr != nil {
		t.Fatalf("sisqld exited dirty: %v\nstderr:\n%s", werr, d.stderr.String())
	}
	d.outMu.Lock()
	summary := strings.Join(d.outRest, "\n")
	d.outMu.Unlock()
	if !strings.Contains(summary, "sisqld: drained:") {
		t.Fatalf("no drain summary in stdout:\n%s\nstderr:\n%s", summary, d.stderr.String())
	}
	return summary
}

// TestSisqldTwoClientsShareSyncs is the log device's commit delay seen
// from outside: two connections run explicit-transaction UPDATEs on
// different rows for a second, every COMMIT waits for the simulated
// 2.5 ms sync, and /debug/vars says how the device grouped them. Clients
// that took turns read 1.0 commits per sync; held for each other they
// share nearly every one. The daemon must still drain and exit clean.
func TestSisqldTwoClientsShareSyncs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the sisqld binary")
	}
	// Reserve a port for expvar by binding and releasing it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	vars := ln.Addr().String()
	ln.Close()
	d := startSisqld(t, "-customers", "100", "-drain", "1s", "-pprof", vars)

	stop := time.Now().Add(time.Second)
	var wg sync.WaitGroup
	var commits atomic.Uint64
	for id := 1; id <= 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := dial(d.addr, time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.nc.Close()
			for time.Now().Before(stop) {
				for _, q := range []string{
					"BEGIN",
					fmt.Sprintf("UPDATE Checking SET Balance = Balance + 1 WHERE CustomerId = %d", id),
					"COMMIT",
				} {
					if r, alive := c.send(q); !alive || r.Err != "" {
						t.Errorf("%s: alive %v, response %+v", q, alive, r)
						return
					}
				}
				commits.Add(1)
			}
		}(id)
	}
	wg.Wait()

	var got struct {
		WAL struct {
			CommitsPerSync float64
			Stats          struct{ Syncs, Records, Holds, HoldHits int64 }
		} `json:"sicost_wal"`
	}
	resp, err := http.Get("http://" + vars + "/debug/vars")
	if err != nil {
		t.Fatalf("expvar: %v; stderr:\n%s", err, d.stderr.String())
	}
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("expvar: %v", err)
	}
	w := got.WAL
	t.Logf("%d commits by two clients: %d records in %d syncs (%.2f per sync), %d held, %d of them until the other was back",
		commits.Load(), w.Stats.Records, w.Stats.Syncs, w.CommitsPerSync, w.Stats.Holds, w.Stats.HoldHits)
	if w.CommitsPerSync < 1.3 {
		t.Errorf("two closed-loop clients: %.2f commits per sync, want at least 1.3", w.CommitsPerSync)
	}
	d.terminate(t, func() {})
}

// client is one connection to the daemon.
type client struct {
	nc net.Conn
	br *bufio.Reader
}

func dial(addr string, timeout time.Duration) (*client, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &client{nc, bufio.NewReader(nc)}, nil
}

// send runs one statement and returns its response, skipping drain
// notices; alive is false once the connection is of no further use.
func (c *client) send(q string) (r server.Response, alive bool) {
	b, _ := json.Marshal(server.Request{Q: q})
	c.nc.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.nc.Write(append(b, '\n')); err != nil {
		return server.Response{}, false
	}
	for {
		line, err := c.br.ReadBytes('\n')
		if err != nil {
			return server.Response{}, false
		}
		var r server.Response
		if json.Unmarshal(line, &r) != nil {
			return server.Response{}, false
		}
		if r.Notice != "" && r.Status == "" && r.Err == "" && !r.Final {
			continue // drain notice
		}
		return r, !r.Final
	}
}

// runTransfers runs transfers on one connection until it dies. It
// reports true when the server is unreachable (dial failed), false when
// the connection dropped mid-use (reconnect and continue).
func runTransfers(addr string, rng *rand.Rand, stop <-chan struct{}, commits *atomic.Uint64) bool {
	c, err := dial(addr, 300*time.Millisecond)
	if err != nil {
		select {
		case <-stop:
			return true
		default:
			time.Sleep(5 * time.Millisecond)
			return false
		}
	}
	defer c.nc.Close()
	for {
		select {
		case <-stop:
			return true
		default:
		}
		a, b := 1+rng.Intn(100), 1+rng.Intn(100)
		if a == b {
			b = a%100 + 1
		}
		ok := true
		for i, q := range []string{
			"BEGIN",
			fmt.Sprintf("UPDATE Checking SET Balance = Balance - 2 WHERE CustomerId = %d", a),
			fmt.Sprintf("UPDATE Checking SET Balance = Balance + 2 WHERE CustomerId = %d", b),
			"COMMIT",
		} {
			r, alive := c.send(q)
			if !alive {
				return false
			}
			if r.Err != "" {
				if r.InTx {
					c.send("ROLLBACK")
				}
				ok = false
				break
			}
			if ok && i == 3 {
				commits.Add(1)
			}
		}
	}
}
