package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/wal"
)

// Ring settings a 2-node workload runs with. The membership refresh is
// cescd's default. The journals live in the checkout, on whatever disk it
// is on, so the ring keeps the disk off its measured path the way a tmpfs
// WAL would: owners journal with fsync policy never (every record is
// still framed, checksummed and written), and standbys, which fsync on
// every ship, are shipped every 2 s rather than cescd's default 250 ms.
// With interval fsync on the ext4 disk of a 2-vCPU VM, the owners' inline
// fsyncs made the ring's p99 swing by 40% from run to run.
const (
	ringRefreshEvery   = 2 * time.Second
	ringReplicateEvery = 2 * time.Second
	ringFsync          = wal.SyncNever
)

// createConns is how many session creations set-up keeps in flight, as
// a fleet of testbenches starting together would. With the WAL on, each
// create fsyncs its session's meta record; concurrent creates share the
// filesystem's journal commits, so set-up time depends less on the disk's
// momentary latency.
const createConns = 8

// node is one daemon behind its own loopback listener. ServeHTTP wraps
// the daemon's handler: the benchmark-side span around the call into the
// server layer that the HTTP overhead is measured against.
type node struct {
	name string
	url  string
	srv  *server.Server
	cn   *cluster.Node // nil on a standalone daemon
	hs   *http.Server

	inner atomic.Pointer[http.Handler]

	// Entry-node handler time of tick requests (forwarded hops excluded).
	handlerNs atomic.Int64
	handlerN  atomic.Int64
	// byTrace keeps the handler time of each traced ?wait=1 request.
	traced  bool
	byTrace sync.Map // trace id -> time.Duration
}

func (n *node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := n.inner.Load()
	if h == nil {
		http.Error(w, "node starting", http.StatusServiceUnavailable)
		return
	}
	if r.Method != http.MethodPost || !strings.HasSuffix(r.URL.Path, "/ticks") ||
		r.Header.Get(cluster.HeaderForwarded) != "" {
		(*h).ServeHTTP(w, r)
		return
	}
	start := time.Now()
	(*h).ServeHTTP(w, r)
	d := time.Since(start)
	n.handlerNs.Add(int64(d))
	n.handlerN.Add(1)
	if n.traced && r.URL.Query().Get("wait") == "1" {
		if id := r.Header.Get("X-Cesc-Trace"); id != "" {
			n.byTrace.Store(id, d)
		}
	}
}

// session is one daemon session and the client-side record of what it
// was sent. A session belongs to one load worker at a time, so its
// fields need no lock.
type session struct {
	id     string
	stream *stream
	next   int    // batches attempted so far; batch k carries body k % pool
	seq    uint64 // last ?seq sent (ring cycles)
	// applied lists, as half-open ranges of batch numbers, every batch the
	// daemon applied. The correctness gate steps its reference over
	// exactly these. Ranges keep the record small: it is one range unless
	// a request was refused.
	applied []batchRange
	// ambiguous is the pool index of a batch whose outcome the client
	// cannot know (transport error, 500, 502), or -1. The session gets no
	// traffic after it, so it can only be the last batch applied.
	ambiguous int
}

type batchRange struct{ from, to int }

func (s *session) markApplied(k int) {
	if n := len(s.applied); n > 0 && s.applied[n-1].to == k {
		s.applied[n-1].to++
		return
	}
	s.applied = append(s.applied, batchRange{k, k + 1})
}

// eachApplied calls f with the pool index of every applied batch, in
// order.
func (s *session) eachApplied(f func(idx int)) {
	for _, r := range s.applied {
		for k := r.from; k < r.to; k++ {
			f(k % len(s.stream.batches))
		}
	}
}

// group is the unit a load worker cycles over: one session on a
// standalone daemon; on the ring, two sessions that one node minted onto
// one shard, paired in chart order so that most pairs share a chart. A
// ring cycle interleaves the pair's batches, so they share a shard queue
// (the cycle's barrier covers all of them) and, sharing a chart's table,
// can meet in one drain window and step as a lane group.
type group struct {
	sessions []*session
	owner    int // index of the node that holds the sessions
}

// live reports whether the client still knows the state of every
// session in the group.
func (g *group) live() bool {
	for _, s := range g.sessions {
		if s.ambiguous >= 0 {
			return false
		}
	}
	return true
}

// rig is one running topology with its sessions.
type rig struct {
	w        *workload
	nodes    []*node
	dir      string // journal (and standby) root, when the WAL is on
	sessions []*session
	groups   []*group
	ctl      *http.Client // set-up, scrapes and verdict reads; not load
	createNs time.Duration
	traces   atomic.Uint64 // trace ids handed out, unique per rig
}

// startRig builds the workload's topology, loads its charts and creates
// its sessions. depth > 0 turns on the daemons' span tracing.
func startRig(w *workload, t *traffic, workDir string, depth int) (r *rig, err error) {
	r = &rig{w: w, ctl: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: createConns}}}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	count := 1
	if w.ring {
		count = 2
	}
	if w.ring || w.wal {
		if r.dir, err = os.MkdirTemp(workDir, "wal-"); err != nil {
			return r, err
		}
	}
	var peers []cluster.Member
	for i := 0; i < count; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return r, err
		}
		n := &node{name: fmt.Sprintf("n%d", i), url: "http://" + ln.Addr().String(), traced: depth > 0}
		n.hs = &http.Server{Handler: n, ReadHeaderTimeout: 10 * time.Second}
		go func() { _ = n.hs.Serve(ln) }()
		r.nodes = append(r.nodes, n)
		peers = append(peers, cluster.Member{Name: n.name, URL: n.url})
	}
	for _, n := range r.nodes {
		cfg := server.Config{TraceDepth: depth}
		var h http.Handler
		if w.ring {
			cfg.WALDir = filepath.Join(r.dir, n.name, "wal")
			cfg.Fsync = ringFsync
			n.cn, err = cluster.New(cluster.Config{
				Name: n.name, AdvertiseURL: n.url, Peers: peers,
				RefreshEvery: ringRefreshEvery, ReplicateEvery: ringReplicateEvery,
				StandbyDir: filepath.Join(r.dir, n.name, "standby"),
				Server:     cfg,
			})
			if err != nil {
				return r, fmt.Errorf("starting %s: %w", n.name, err)
			}
			n.srv, h = n.cn.Server(), n.cn.Handler()
		} else {
			if w.wal {
				cfg.WALDir = filepath.Join(r.dir, n.name, "wal")
			}
			if n.srv, err = server.New(cfg); err != nil {
				return r, err
			}
			h = n.srv.Handler()
		}
		for _, sp := range t.specs {
			if _, err := n.srv.LoadSpecSource(sp.src); err != nil {
				return r, fmt.Errorf("loading %s: %w", sp.name, err)
			}
		}
		n.inner.Store(&h)
	}
	infos := make([]server.SessionInfoJSON, len(t.streams))
	errs := make([]error, len(t.streams))
	var next, createNs atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < createConns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(t.streams); i = int(next.Add(1)) - 1 {
				start := time.Now()
				infos[i], errs[i] = r.createSession(r.nodes[i%len(r.nodes)], &t.streams[i])
				createNs.Add(int64(time.Since(start)))
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return r, fmt.Errorf("creating session %d: %w", i, err)
		}
	}
	r.createNs = time.Duration(createNs.Load() / int64(len(t.streams)))
	type slot struct{ owner, shard int }
	var slots []slot
	bySlot := map[slot][]*session{}
	for i, info := range infos {
		st := &t.streams[i]
		sess := &session{id: info.ID, stream: st, ambiguous: -1}
		r.sessions = append(r.sessions, sess)
		owner := i % len(r.nodes)
		if !w.ring {
			r.groups = append(r.groups, &group{sessions: []*session{sess}, owner: owner})
			continue
		}
		k := slot{owner, info.Shard}
		if _, ok := bySlot[k]; !ok {
			slots = append(slots, k)
		}
		bySlot[k] = append(bySlot[k], sess)
	}
	for _, k := range slots {
		ss := bySlot[k]
		sort.SliceStable(ss, func(a, b int) bool { return ss[a].stream.spec < ss[b].stream.spec })
		for i := 0; i < len(ss); i += 2 {
			r.groups = append(r.groups, &group{sessions: ss[i:min(i+2, len(ss))], owner: k.owner})
		}
	}
	return r, nil
}

// createSession creates one single-spec session of the stream's chart
// and mode on n.
func (r *rig) createSession(n *node, st *stream) (server.SessionInfoJSON, error) {
	var info server.SessionInfoJSON
	body, _ := json.Marshal(map[string]any{"specs": []string{st.spec}, "mode": st.mode})
	resp, err := r.ctl.Post(n.url+"/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return info, err
	}
	derr := json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || derr != nil || info.ID == "" {
		return info, fmt.Errorf("status %d (%v)", resp.StatusCode, derr)
	}
	return info, nil
}

// close stops the rig and removes its journal root.
func (r *rig) close() {
	r.stop()
	if r.dir != "" {
		_ = os.RemoveAll(r.dir)
	}
}

// stop shuts the listeners, then the daemons, which closes their
// journals. The control client lets go of its connections first: a
// connection it dialed but never used would hold up Shutdown for 5 s.
func (r *rig) stop() {
	r.ctl.CloseIdleConnections()
	for _, n := range r.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = n.hs.Shutdown(ctx)
		cancel()
	}
	for _, n := range r.nodes {
		switch {
		case n.cn != nil:
			n.cn.Close()
		case n.srv != nil:
			n.srv.Close()
		}
	}
}

// get fetches url and decodes its JSON body into out.
func (r *rig) get(url string, out any) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "application/json")
	resp, err := r.ctl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
