package clitest

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
)

// Server is a running metroserve subprocess bound to an ephemeral port.
type Server struct {
	// URL is the server's base URL, e.g. "http://127.0.0.1:41873".
	URL string

	cmd    *exec.Cmd
	out    *serverLog
	waited chan error
}

// serverLog accumulates the daemon's combined output for post-mortem
// dumps while letting the startup scanner read stdout line by line. The
// mutex matters: exec feeds stderr from its own goroutine while the
// harness copies stdout from another.
type serverLog struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (l *serverLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *serverLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// StartServer builds metro/cmd/metroserve (once per test process) and
// starts it on an ephemeral port with the given extra flags, returning
// once the daemon reports its bound address. The server is stopped with
// SIGTERM — exercising the graceful-drain path — via t.Cleanup, and its
// full output is logged if the test fails.
func StartServer(t *testing.T, flags ...string) *Server {
	t.Helper()
	if testing.Short() {
		t.Skip("metroserve harness execs a subprocess; skipped in -short mode")
	}
	args := append([]string{"-addr", "127.0.0.1:0"}, flags...)
	cmd := exec.Command(binary(t, "metro/cmd/metroserve"), args...)
	cmd.Env = os.Environ()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	logs := &serverLog{}
	cmd.Stderr = logs
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting metroserve: %v", err)
	}

	// The first stdout line is `metroserve listening on <addr>`; the
	// rest of the stream is drained into the log.
	sc := bufio.NewScanner(io.TeeReader(stdout, logs))
	addr := ""
	for sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), "metroserve listening on "); ok {
			addr = a
			break
		}
	}
	if addr == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("metroserve never reported a listen address; output:\n%s", logs.String())
	}
	waited := make(chan error, 1)
	go func() {
		io.Copy(logs, stdout)
		waited <- cmd.Wait()
	}()

	s := &Server{URL: "http://" + addr, cmd: cmd, out: logs, waited: waited}
	t.Cleanup(func() {
		err := s.Stop()
		if t.Failed() {
			t.Logf("metroserve output:\n%s", logs.String())
		}
		if err != nil {
			t.Errorf("metroserve did not drain cleanly: %v\noutput:\n%s", err, logs.String())
		}
	})
	return s
}

// Stop sends SIGTERM and waits for the daemon to drain and exit,
// returning an error if it exited non-zero. Stop is idempotent; the
// automatic cleanup calls it if the test has not.
func (s *Server) Stop() error {
	if s.cmd == nil {
		return nil
	}
	cmd := s.cmd
	s.cmd = nil
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signaling metroserve: %w", err)
	}
	if err := <-s.waited; err != nil {
		return fmt.Errorf("metroserve exit: %w", err)
	}
	return nil
}

// Output returns everything the daemon has written so far.
func (s *Server) Output() string { return s.out.String() }
