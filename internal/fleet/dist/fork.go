package dist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

// Forked is a set of worker processes a coordinator launched on the
// local machine (the single-binary `-distributed N` mode). Workers exit
// on Shutdown RPC or — because their stdin is a pipe from this process
// — when the coordinator dies, so no children outlive a crash.
type Forked struct {
	Addrs  []string
	cmds   []*exec.Cmd
	stdins []io.WriteCloser
}

// forkStartTimeout bounds how long a forked worker may take to announce
// its listening address.
const forkStartTimeout = 30 * time.Second

// Fork launches n worker processes of binary, each with argsFor(i) on
// its command line (which must put the worker into -serve-worker mode
// on a self-picked port). All n are started first and then awaited
// together, under one deadline, for the address each announces — so
// start-up costs one child's latency, not n. extraEnv entries
// ("KEY=value") are appended to each child's environment — the
// secret-passing channel: the cluster key travels here, never on argv,
// so ps(1) cannot leak it. On any failure every child already started
// is stopped and reaped.
func Fork(binary string, n int, argsFor func(i int) []string, extraEnv ...string) (*Forked, error) {
	f := &Forked{Addrs: make([]string, n)}
	type announced struct {
		i    int
		addr string
		err  error
	}
	ch := make(chan announced, n) // one send per started child
	for i := 0; i < n; i++ {
		cmd := exec.Command(binary, argsFor(i)...)
		cmd.Env = append(append(os.Environ(), stdinExitEnv+"=1"), extraEnv...)
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			f.Stop()
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			f.Stop()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			f.Stop()
			return nil, fmt.Errorf("dist: fork worker %d: %w", i, err)
		}
		f.cmds = append(f.cmds, cmd)
		f.stdins = append(f.stdins, stdin)
		// The reader ends when the child's stdout closes, which Stop
		// guarantees by reaping the child.
		go func(i int) {
			addr, err := scanListenLine(stdout)
			ch <- announced{i, addr, err}
			// Keep draining so the child never blocks on a full stdout pipe.
			io.Copy(io.Discard, stdout)
		}(i)
	}
	deadline := time.NewTimer(forkStartTimeout)
	defer deadline.Stop()
	for pending := n; pending > 0; pending-- {
		select {
		case a := <-ch:
			if a.err != nil {
				f.Stop()
				return nil, fmt.Errorf("dist: worker %d: %w", a.i, a.err)
			}
			f.Addrs[a.i] = a.addr
		case <-deadline.C:
			f.Stop()
			return nil, fmt.Errorf("dist: %d of %d workers announced no address within %v", pending, n, forkStartTimeout)
		}
	}
	return f, nil
}

// scanListenLine reads the worker's stdout up to its address line.
func scanListenLine(stdout io.Reader) (string, error) {
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, listenLinePrefix) {
			return strings.TrimPrefix(line, listenLinePrefix), nil
		}
	}
	return "", fmt.Errorf("exited before announcing its address (%v)", sc.Err())
}

// Kill SIGKILLs worker i — the chaos-test path.
func (f *Forked) Kill(i int) error {
	return f.cmds[i].Process.Kill()
}

// Signal delivers sig to worker i — the graceful-drain test path
// (SIGTERM starts a drain; see ServeWorker).
func (f *Forked) Signal(i int, sig os.Signal) error {
	return f.cmds[i].Process.Signal(sig)
}

// Wait blocks until worker i exits and returns its exit code — how
// drain tests observe the exit-130-on-SIGTERM contract.
func (f *Forked) Wait(i int) int {
	err := f.cmds[i].Wait()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	if err != nil {
		return -1
	}
	return 0
}

// Stop ends every worker: close stdin (the cooperative exit), give them
// a moment, then kill stragglers, and reap.
func (f *Forked) Stop() {
	for _, in := range f.stdins {
		in.Close()
	}
	for _, cmd := range f.cmds {
		done := make(chan struct{})
		go func() {
			cmd.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}
}
