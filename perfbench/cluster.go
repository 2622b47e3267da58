package main

import (
	"bufio"
	"bytes"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/serve"
)

// node is one in-process ptaserve instance on a loopback listener. Its
// metric registry is the benchmark's, so /metrics is scraped in-process.
type node struct {
	url string
	srv *serve.Server
	reg *obs.Registry
	hs  *http.Server
}

func startNode(tr *tracer, name string, ln net.Listener, cfg serve.Config) (*node, error) {
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	cfg.Logger = log.New(os.Stderr, name+": ", 0)
	srv, err := serve.New(cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	n := &node{url: "http://" + ln.Addr().String(), srv: srv, reg: cfg.Metrics}
	n.hs = &http.Server{Handler: tr.wrapHandler(name, srv.Handler())}
	go n.hs.Serve(ln)
	return n, nil
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// cluster is what a workload's clients talk to: entry receives every
// request; workers are the nodes that fill and cache matrices.
type cluster struct {
	entry   *node
	workers []*node
	co      *dist.Coordinator
	tmp     string
}

// startSingle starts one default-configured worker (64 cache entries).
func startSingle(tr *tracer) (*cluster, error) {
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	w, err := startNode(tr, "worker", ln, serve.Config{})
	if err != nil {
		return nil, err
	}
	return &cluster{entry: w, workers: []*node{w}}, nil
}

// fleetSpillMaxBytes caps one spill file at a few DP rows of a fleet run.
// With the default 64 MiB cap every cold shard fill rewrites its spill file
// once per plan of the /v1/compress/many call (41 times at c=48), and ext4
// flushes each file renamed over another; a back-to-back client then drives
// the disk into throttling and each run is slower than the last (on a
// 2-vCPU VM with a virtio disk, p50 rose from 42 ms to 118 ms over ten
// consecutive runs). At this cap the first rows of every fill still spill,
// and evicted runs still load from spill or peers.
const fleetSpillMaxBytes = 4096

// startFleet starts the README fleet: two workers with spill directories
// and each other as -peers, and a front node whose "dist" strategy
// coordinates over them. Spill directories live under tmpRoot.
func startFleet(tr *tracer, tmpRoot string) (*cluster, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(tmpRoot, "fleet-")
	if err != nil {
		return nil, err
	}
	c := &cluster{tmp: tmp}
	var lns []net.Listener
	for i := 0; i < 2; i++ {
		ln, err := listen()
		if err != nil {
			c.close()
			return nil, err
		}
		lns = append(lns, ln)
	}
	urls := []string{"http://" + lns[0].Addr().String(), "http://" + lns[1].Addr().String()}
	for i, ln := range lns {
		w, err := startNode(tr, fmt.Sprintf("worker%d", i+1), ln, serve.Config{
			SpillDir:      filepath.Join(tmp, fmt.Sprintf("w%d", i+1)),
			SpillMaxBytes: fleetSpillMaxBytes,
			Peers:         []string{urls[1-i]},
		})
		if err != nil {
			lns[1].Close()
			c.close()
			return nil, err
		}
		c.workers = append(c.workers, w)
	}
	reg := obs.NewRegistry()
	shardClient := &http.Client{Transport: tracedTransport{t: tr, name: "dist.shard", base: &http.Transport{
		MaxIdleConnsPerHost: 32,
		DisableCompression:  true,
	}}}
	c.co, err = dist.New(dist.WithWorkers(urls...), dist.WithRegistry(reg), dist.WithHTTPClient(shardClient))
	if err != nil {
		c.close()
		return nil, err
	}
	dist.Activate(c.co)
	ln, err := listen()
	if err != nil {
		c.close()
		return nil, err
	}
	if c.entry, err = startNode(tr, "front", ln, serve.Config{Metrics: reg}); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *cluster) close() {
	if c.entry != nil {
		c.entry.hs.Close()
	}
	for _, w := range c.workers {
		if w != c.entry {
			w.hs.Close()
		}
	}
	if c.co != nil {
		dist.Activate(nil)
	}
	if c.tmp != "" {
		os.RemoveAll(c.tmp)
	}
}

// scrape is one /metrics exposition, keyed by series name with labels.
type scrape map[string]float64

func (n *node) scrape() scrape {
	var buf bytes.Buffer
	if err := n.reg.WritePrometheus(&buf); err != nil {
		panic(err) // writing to a bytes.Buffer cannot fail
	}
	out := scrape{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// family sums every series of one metric name, over all label sets.
func (s scrape) family(name string) float64 {
	var sum float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// scrapeAll sums each family over the nodes.
func scrapeAll(nodes []*node) scrape {
	total := scrape{}
	for _, n := range nodes {
		for k, v := range n.scrape() {
			total[k] += v
		}
	}
	return total
}

// delta is after − before for one family.
func delta(before, after scrape, name string) float64 {
	return after.family(name) - before.family(name)
}
