package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"accubench/internal/crowd"
	"accubench/internal/server"
	"accubench/internal/wal"
)

// deployedConfig is crowdd's flag defaults plus -data-dir and
// -bin-mode sketch: the durable group-commit WAL (2 ms window), sketch
// bins and, in a cluster, full replication with proxy routing, where a
// 202 or an ack means a local durable commit plus one replica ack.
func deployedConfig(dataDir string) server.Config {
	return server.Config{
		Shards:        16,
		Workers:       4,
		QueueDepth:    256,
		Policy:        crowd.DefaultPolicy(),
		MaxK:          5,
		BinMode:       server.BinModeSketch,
		BinDebounce:   150 * time.Millisecond,
		SubmitTimeout: 2 * time.Second,
		MaxBodyBytes:  1 << 20,
		DataDir:       dataDir,
		FsyncEvery:    wal.DefaultFlushEvery,
		SnapshotEvery: wal.DefaultSnapshotEvery,
		SegmentBytes:  wal.DefaultSegmentBytes,
	}
}

func deployedCluster(id string, peers map[string]string, client *http.Client) *server.ClusterConfig {
	return &server.ClusterConfig{
		NodeID:            id,
		Peers:             peers,
		RouteMode:         server.RouteProxy,
		AckTimeout:        3 * time.Second,
		ReconcileInterval: time.Second,
		Client:            client,
	}
}

// node is one in-process crowdd: the server behind a real loopback
// listener.
type node struct {
	id      string
	url     string
	addr    string
	dataDir string
	peers   map[string]string
	srv     *server.Server
	http    *http.Server
	cancel  context.CancelFunc
	done    chan struct{}
	// shadow marks a node that recovers a copy of another node's data
	// dir with that node's cluster config. Its anti-entropy never runs,
	// so it pulls nothing from the live peers and the copy stays as it
	// was made.
	shadow bool
}

// fleet is the set of nodes under test plus the tracer, when traced.
type fleet struct {
	nodes  []*node
	tr     *tracer
	client *http.Client // the benchmark's own client for checks
}

// startFleet starts n nodes (n > 1 makes a cluster) with fresh data dirs
// under dir and waits until each answers /healthz.
func startFleet(dir string, n int, tr *tracer) (*fleet, error) {
	f := &fleet{tr: tr, client: &http.Client{Timeout: 30 * time.Second, Transport: newTransport(8)}}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
	}
	for i, ln := range lns {
		nd := &node{id: fmt.Sprintf("n%d", i+1), addr: ln.Addr().String(), dataDir: filepath.Join(dir, fmt.Sprintf("n%d", i+1))}
		nd.url = "http://" + nd.addr
		f.nodes = append(f.nodes, nd)
	}
	if n > 1 {
		for _, nd := range f.nodes {
			nd.peers = make(map[string]string)
			for _, p := range f.nodes {
				if p != nd {
					nd.peers[p.id] = p.url
				}
			}
		}
	}
	for i, nd := range f.nodes {
		if err := f.open(nd, lns[i]); err != nil {
			for _, l := range lns[i+1:] {
				l.Close()
			}
			f.close()
			return nil, err
		}
	}
	for _, nd := range f.nodes {
		if err := f.waitHealthy(nd); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// open builds the node's server from the deployed config (recovering
// its data dir, if any) and serves it on ln.
func (f *fleet) open(nd *node, ln net.Listener) error {
	cfg := deployedConfig(nd.dataDir)
	if nd.peers != nil {
		var client *http.Client
		if f.tr != nil {
			// The server's own default peer client, with the span shim
			// around the same default transport.
			client = &http.Client{Timeout: 5 * time.Second, Transport: f.tr.transport(nd.id, http.DefaultTransport)}
		}
		cfg.Cluster = deployedCluster(nd.id, nd.peers, client)
		if nd.shadow {
			cfg.Cluster.ReconcileInterval = time.Hour
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		ln.Close()
		return fmt.Errorf("node %s: %w", nd.id, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	var h http.Handler = srv.Handler()
	if f.tr != nil {
		h = f.tr.handler(nd.id, h)
	}
	nd.srv, nd.cancel, nd.done = srv, cancel, make(chan struct{})
	nd.http = &http.Server{Handler: h}
	go func(hs *http.Server, done chan struct{}) {
		defer close(done)
		hs.Serve(ln)
	}(nd.http, nd.done)
	return nil
}

func (f *fleet) waitHealthy(nd *node) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := f.client.Get(nd.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node %s never became healthy: %v", nd.id, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// crash kills a node the way kill -9 would: the WAL is abandoned without
// a final flush or snapshot and the pipeline is hard-aborted.
func (f *fleet) crash(nd *node) {
	nd.http.Close()
	<-nd.done
	nd.srv.Crash()
	nd.cancel()
}

// reopen restarts a crashed node on its old address and data dir and
// returns the seconds from reopen to healthy. A node that has not run
// yet listens on the address it is given, port 0 included.
func (f *fleet) reopen(nd *node) (float64, error) {
	t0 := time.Now()
	ln, err := net.Listen("tcp", nd.addr)
	if err != nil {
		return 0, err
	}
	nd.addr = ln.Addr().String()
	nd.url = "http://" + nd.addr
	if err := f.open(nd, ln); err != nil {
		return 0, err
	}
	if err := f.waitHealthy(nd); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// close shuts every node down gracefully.
func (f *fleet) close() {
	for _, nd := range f.nodes {
		if nd.http == nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		nd.http.Shutdown(ctx)
		cancel()
		<-nd.done
	}
	for _, nd := range f.nodes {
		if nd.srv != nil {
			nd.srv.Close()
			nd.cancel()
		}
	}
	f.client.CloseIdleConnections()
}

// newTransport is a keep-alive transport holding up to conns connections
// per host.
func newTransport(conns int) *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = conns
	t.MaxConnsPerHost = conns
	return t
}

// get fetches a URL and returns the body of a 200 reply.
func (f *fleet) get(url string) ([]byte, error) {
	resp, err := f.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}

// scrape sums every sample of each series, labelled or not, over the
// nodes' /metrics.
func (f *fleet) scrape() (map[string]float64, error) {
	out := make(map[string]float64)
	for _, nd := range f.nodes {
		b, err := f.get(nd.url + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(strings.NewReader(string(b)))
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				continue
			}
			name := line[:sp]
			if k := strings.IndexByte(name, '{'); k >= 0 {
				name = name[:k]
			}
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				continue
			}
			out[name] += v
		}
	}
	return out, nil
}

// scrapeDelta is the per-series change between two scrapes.
func scrapeDelta(a, b map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(b))
	for k, v := range b {
		d[k] = v - a[k]
	}
	return d
}

// copyDir copies the directory tree src, made of directories and
// regular files, to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// workDir makes a fresh directory for one run's data dirs under the
// checkout's build directory.
func workDir() (string, error) {
	dir := filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
