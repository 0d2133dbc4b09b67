package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"graf/internal/rpc"
)

// shardProc is one spawned grafd -shard child.
type shardProc struct {
	addr string
	cmd  *exec.Cmd
	done chan struct{} // closed when Wait returns
}

// spawnShard starts one grafd shard process and parses its bound address
// from the contract line `shard listening on HOST:PORT` (always the first
// stdout line). Remaining output is streamed through with a slot prefix.
func (o *routerOptions) spawnShard(slot int) (rpc.ShardProc, error) {
	cmd := exec.Command(o.grafdBin, "-model", o.Model, "-shard", "127.0.0.1:0", "-ckpt", o.Ckpt, "-audit-dir", o.AuditDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn shard %d (%s): %w", slot, o.grafdBin, err)
	}
	p := &shardProc{cmd: cmd, done: make(chan struct{})}

	// If the address line never arrives the child is broken; don't hang the
	// router on it.
	giveUp := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if addr, ok := strings.CutPrefix(line, "shard listening on "); ok {
			p.addr = strings.TrimSpace(addr)
			break
		}
		fmt.Printf("[shard %d] %s\n", slot, line)
	}
	giveUp.Stop()
	if p.addr == "" {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("shard %d exited before reporting its address", slot)
	}
	go func() {
		for sc.Scan() {
			fmt.Printf("[shard %d] %s\n", slot, sc.Text())
		}
		cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

func (p *shardProc) Addr() string { return p.addr }
func (p *shardProc) PID() int     { return p.cmd.Process.Pid }

// Kill delivers SIGKILL — the chaos path: no drain, no flush, the process is
// simply gone. Recovery must work from the durable audit logs alone.
func (p *shardProc) Kill() {
	p.cmd.Process.Kill()
	<-p.done
}

// Shutdown asks for a graceful drain (SIGTERM flushes and checkpoints the
// shard) and waits bounded time for it.
func (p *shardProc) Shutdown() error {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.Kill()
	}
	return nil
}
