package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sicost/internal/metrics"
	"sicost/internal/server"
	"sicost/internal/smallbank"
)

// buildDir holds everything the benchmark builds or scratches, inside
// the checkout and ignored by git.
const buildDir = ".bench_build"

// repoRoot finds the repository root: the parent of the benchmark's own
// directory, whether the process starts there (go run, go test) or at
// the root (run.sh).
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "benchspine", "go.mod")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("benchspine: run from the repository root or from benchspine/ (cwd %s)", wd)
}

// buildSisqld compiles cmd/sisqld into the build directory and reports
// how long that took (bench.build_s; never part of setup_s).
func buildSisqld(root string) (bin string, took time.Duration, err error) {
	bin = filepath.Join(root, buildDir, "sisqld")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "sicost/cmd/sisqld")
	cmd.Dir = filepath.Join(root, "benchspine")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build sisqld: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// sisqld is one running daemon under test.
type sisqld struct {
	cmd     *exec.Cmd
	addr    string
	varsURL string
	stderr  bytes.Buffer
	// rest receives the stdout lines after the listening line once the
	// process closes stdout (the drain summary is among them).
	rest chan []string
}

// freePort reserves a loopback port by binding and releasing it.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startSisqld execs the daemon as `sisqld -mode si` with the paper's
// database and waits for its listening line. The pprof/expvar port is
// passed identically in the untraced and traced pass.
func startSisqld(bin string, seed int64) (*sisqld, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &sisqld{rest: make(chan []string, 1)}
	s.varsURL = fmt.Sprintf("http://127.0.0.1:%d/debug/vars", port)
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-mode", "si",
		"-customers", strconv.Itoa(customers), "-seed", strconv.FormatInt(seed, 10),
		"-pprof", fmt.Sprintf("127.0.0.1:%d", port))
	s.cmd.Stderr = &s.stderr
	// Whatever ends the benchmark, the daemon must not outlive it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	first := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			first <- sc.Text()
		}
		close(first)
		var lines []string
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		s.rest <- lines
	}()
	select {
	case line, ok := <-first:
		addr := strings.TrimPrefix(line, "sisqld: listening on ")
		if !ok || addr == line {
			s.kill()
			return nil, fmt.Errorf("sisqld: no listening line (got %q); stderr:\n%s", line, s.stderr.String())
		}
		s.addr = addr
		return s, nil
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("sisqld: not listening after 60s; stderr:\n%s", s.stderr.String())
	}
}

// setUpSisqld starts a daemon and times exec → schema loaded and first
// request answered. The expvar port was reserved by binding and
// releasing it, so another socket can take it first (seen once in some
// 300 starts); sisqld then serves SQL but no /debug/vars, and the set-up
// is redone on a new port.
func setUpSisqld(bin string, seed int64) (d *sisqld, took time.Duration, err error) {
	for try := 0; try < 3; try++ {
		start := time.Now()
		if d, err = startSisqld(bin, seed); err != nil {
			return nil, 0, err
		}
		var probe *wireClient
		if probe, err = dialWire(d.addr, false); err == nil {
			s := balanceStmt(smallbank.TableChecking, 0)
			_, err = probe.exec(&s)
			probe.close()
		}
		took = time.Since(start)
		if err == nil {
			if _, err = d.vars(); err == nil {
				return d, took, nil
			}
		}
		d.kill()
	}
	return nil, 0, err
}

// kill ends the process without ceremony (error paths only) and waits
// for it, so nothing the benchmark started outlives it.
func (s *sisqld) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

// stop is the daemon's half of the audit: SIGTERM must print the drain
// summary and exit 0, which sisqld does only when its own admission-
// gate and transaction leak checks pass.
func (s *sisqld) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return fmt.Errorf("sisqld: SIGTERM: %w", err)
	}
	var lines []string
	select {
	case lines = <-s.rest:
	case <-time.After(30 * time.Second):
		s.kill()
		return fmt.Errorf("sisqld: still running 30s after SIGTERM; stderr:\n%s", s.stderr.String())
	}
	if err := s.cmd.Wait(); err != nil {
		return fmt.Errorf("sisqld: exited dirty: %w; stderr:\n%s", err, s.stderr.String())
	}
	for _, l := range lines {
		if strings.HasPrefix(l, "sisqld: drained:") {
			return nil
		}
	}
	return fmt.Errorf("sisqld: no drain summary on stdout: %q", lines)
}

// varsSnapshot is the part of /debug/vars the benchmark reads: the two
// gauges sisqld publishes and the runtime's allocation counter.
type varsSnapshot struct {
	Server server.Stats        `json:"sicost_server"`
	Txn    metrics.TxnSnapshot `json:"sicost_txn_metrics"`
	Mem    struct {
		Mallocs uint64
	} `json:"memstats"`
}

func (s *sisqld) vars() (varsSnapshot, error) {
	var v varsSnapshot
	resp, err := http.Get(s.varsURL)
	if err != nil {
		return v, fmt.Errorf("sisqld: /debug/vars: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, fmt.Errorf("sisqld: /debug/vars: %w", err)
	}
	return v, nil
}

// wireResponse is the slice of server.Response the client reads. The
// programs select integer columns only, so rows decode as int64.
type wireResponse struct {
	Rows      [][]int64 `json:"rows"`
	Err       string    `json:"error"`
	Retriable bool      `json:"retriable"`
	InTx      bool      `json:"in_tx"`
	Notice    string    `json:"notice"`
	Status    string    `json:"status"`
	Final     bool      `json:"final"`
}

// wireClient is one closed-loop client: one TCP connection to sisqld,
// one request line out, one response line back.
type wireClient struct {
	nc   net.Conn
	br   *bufio.Reader
	out  []byte
	prog program

	// Since the last resetWindow: every round trip (request line
	// written → response line read), bytes written and read, reruns.
	stmtLat  []uint32
	bytesOut int64
	bytesIn  int64
	retries  int
	lastErr  error // most recent non-retriable failure, for the report

	tr      *tracer
	trTrace uint32
	trRoot  uint32
}

func dialWire(addr string, matAll bool) (*wireClient, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := &wireClient{nc: nc, br: bufio.NewReaderSize(nc, 4096), out: make([]byte, 0, 256)}
	c.prog = program{matAll: matAll, exec: c.exec, book: ledger{}}
	return c, nil
}

func (c *wireClient) close() { c.nc.Close() }

// resetWindow forgets what the ramp recorded, so the counters cover the
// window that follows.
func (c *wireClient) resetWindow() {
	c.stmtLat, c.bytesOut, c.bytesIn, c.retries = c.stmtLat[:0], 0, 0, 0
}

// exec sends one statement and waits for its response. In the traced
// pass it wraps three client-side spans around the same work: encode,
// write→read (the round trip proper) and decode.
func (c *wireClient) exec(s *stmt) (int64, error) {
	t0 := time.Now()
	c.out = append(append(append(c.out[:0], `{"q":"`...), s.sql...), "\"}\n"...)
	var tEnc time.Time
	if c.tr != nil {
		tEnc = time.Now()
	}
	if _, err := c.nc.Write(c.out); err != nil {
		return 0, fmt.Errorf("wire: write: %w", err)
	}
	c.bytesOut += int64(len(c.out))
	var (
		resp       wireResponse
		tRead      time.Time
		line       []byte
		err        error
		noticeOnly = true
	)
	for noticeOnly {
		if line, err = c.br.ReadSlice('\n'); err != nil {
			return 0, fmt.Errorf("wire: read: %w", err)
		}
		c.bytesIn += int64(len(line))
		if c.tr != nil {
			tRead = time.Now()
		}
		resp = wireResponse{}
		if err = json.Unmarshal(line, &resp); err != nil {
			return 0, fmt.Errorf("wire: bad response %q: %w", line, err)
		}
		noticeOnly = resp.Notice != "" && resp.Status == "" && resp.Err == "" && !resp.Final
	}
	t1 := time.Now()
	c.stmtLat = append(c.stmtLat, saturate(t1.Sub(t0)))
	if c.tr != nil {
		e := c.tr.epoch
		c.tr.add(c.trTrace, c.trRoot, "bench", "encode", int64(t0.Sub(e)), int64(tEnc.Sub(e)))
		c.tr.add(c.trTrace, c.trRoot, "net", "roundtrip", int64(tEnc.Sub(e)), int64(tRead.Sub(e)))
		c.tr.add(c.trTrace, c.trRoot, "bench", "decode", int64(tRead.Sub(e)), int64(t1.Sub(e)))
	}
	if resp.Err != "" {
		return 0, &stmtError{msg: resp.Err, retriable: resp.Retriable, inTx: resp.InTx}
	}
	if s.kind == kSelect {
		if len(resp.Rows) != 1 || len(resp.Rows[0]) != 1 {
			return 0, fmt.Errorf("wire: %s: want one value, got %v", s.sql, resp.Rows)
		}
		return resp.Rows[0][0], nil
	}
	return 0, nil
}

func (c *wireClient) runTxn(in txnInput, tr *tracer, seq uint32) outcome {
	c.tr = tr
	root := -1
	if tr != nil {
		root = tr.open(seq, 0, "bench", "txn.live")
		c.trTrace, c.trRoot = seq, tr.id(root)
	}
	out := c.attempts(in)
	if tr != nil {
		tr.close(root)
	}
	return out
}

func (c *wireClient) attempts(in txnInput) outcome {
	for try := 0; ; try++ {
		out, err := c.prog.run(in)
		if err == nil {
			return out
		}
		var se *stmtError
		if !errors.As(err, &se) || !se.retriable || try == maxRetries {
			c.lastErr = err
			return failed
		}
		c.retries++
		beforeRerun(try)
	}
}
