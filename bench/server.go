package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"
)

// addrLine matches the line chameleon-serve (and the bench host) logs once
// its listener is bound; the server is started on port 0, so this is how the
// bench learns the port.
var addrLine = regexp.MustCompile(`on http://(\S+)`)

// server is one child server process.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port

	mu   sync.Mutex
	logs []string // the last lines of its stderr, for error messages

	exited  chan struct{} // closed once Wait has returned
	waitErr error
	stopped sync.Once
}

// startServer execs argv and waits until /healthz answers 200. setup is the
// time from exec to that first 200.
func startServer(ctx context.Context, argv []string) (srv *server, setup time.Duration, err error) {
	cmd := exec.Command(argv[0], argv[1:]...)
	// If the bench itself is killed, the kernel kills the server with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", argv[0], err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go s.readLog(stderr, addr)
	defer func() {
		if err != nil {
			s.kill()
		}
	}()

	wait := time.NewTimer(60 * time.Second)
	defer wait.Stop()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.exited:
		return nil, 0, fmt.Errorf("%s exited before listening: %v\n%s", argv[0], s.waitErr, s.tail())
	case <-wait.C:
		return nil, 0, fmt.Errorf("%s did not report a listen address within 60s\n%s", argv[0], s.tail())
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
	client := &http.Client{Transport: &http.Transport{Proxy: nil, DisableKeepAlives: true}, Timeout: 5 * time.Second}
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("%s exited before /healthz answered: %v\n%s", argv[0], s.waitErr, s.tail())
		case <-wait.C:
			return nil, 0, fmt.Errorf("%s /healthz not 200 within 60s\n%s", argv[0], s.tail())
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// readLog consumes stderr until the process closes it, reporting the listen
// address once, then waits for the process.
func (s *server) readLog(r io.Reader, addr chan<- string) {
	sc := bufio.NewScanner(r)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		s.mu.Lock()
		s.logs = append(s.logs, line)
		if len(s.logs) > 50 {
			s.logs = s.logs[1:]
		}
		s.mu.Unlock()
		if m := addrLine.FindStringSubmatch(line); m != nil && !sent {
			addr <- m[1]
			sent = true
		}
	}
	// A line too long for the scanner ends the loop early; keep draining so
	// the server never blocks on a full pipe.
	_, _ = io.Copy(io.Discard, r)
	s.waitErr = s.cmd.Wait()
	close(s.exited)
}

func (s *server) tail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.logs, "\n")
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM, lets the server drain for up to 30 s, then kills it. It
// returns once the process has exited, and reports a drain that failed.
func (s *server) stop() error {
	var err error
	s.stopped.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
			if s.waitErr != nil {
				err = fmt.Errorf("server exit: %v\n%s", s.waitErr, s.tail())
			}
		case <-time.After(30 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.exited
			err = fmt.Errorf("server did not drain within 30s; killed")
		}
	})
	return err
}

// kill ends the process at once and waits for it. Safe after stop.
func (s *server) kill() {
	s.stopped.Do(func() {
		_ = s.cmd.Process.Kill()
		<-s.exited
	})
}
