package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"aerodrome/internal/server"
)

// stack is the service under test: one aerodromed backend (server.New,
// default limits, no tenant quotas) behind one shard router
// (server.NewRouter), each on its own loopback listener.
type stack struct {
	backend    *server.Server
	router     *server.Router
	servers    []*http.Server
	done       sync.WaitGroup
	backendURL string
	routerURL  string
}

func listen(h http.Handler, st *stack) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	st.servers = append(st.servers, hs)
	st.done.Add(1)
	go func() {
		defer st.done.Done()
		hs.Serve(ln) // returns http.ErrServerClosed once Shutdown starts
	}()
	return "http://" + ln.Addr().String(), nil
}

// boot starts the backend and the router and waits until the router
// answers healthy.
func boot() (*stack, error) {
	st := &stack{}
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	st.backend = srv
	if st.backendURL, err = listen(srv, st); err != nil {
		st.Close()
		return nil, err
	}
	rt, err := server.NewRouter(server.RouterConfig{Backends: []string{st.backendURL}, ProbeOnStart: true})
	if err != nil {
		st.Close()
		return nil, err
	}
	st.router = rt
	if st.routerURL, err = listen(rt, st); err != nil {
		st.Close()
		return nil, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(st.routerURL + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return st, nil
			}
		}
		if time.Now().After(deadline) {
			st.Close()
			return nil, fmt.Errorf("router not healthy after 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// Close shuts both listeners down and waits for their serve loops.
func (st *stack) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(st.servers) - 1; i >= 0; i-- {
		st.servers[i].Shutdown(ctx) // best effort: the process is done with them
	}
	if st.router != nil {
		st.router.Close()
	}
	if st.backend != nil {
		st.backend.Close()
	}
	st.done.Wait()
	http.DefaultClient.CloseIdleConnections()
}

// op is one client operation (a check or a whole session) of calls
// client calls. The transport counts their attempts and refusals and
// parents its HTTP spans; attempts beyond calls are retries.
type op struct {
	req      string
	span     atomic.Int64
	calls    atomic.Int64
	attempts atomic.Int64
	refused  atomic.Int64
}

// call notes the start of one client call under span.
func (o *op) call(span int64) {
	o.calls.Add(1)
	o.span.Store(span)
}

type opKey struct{}

// transport tags every request with its operation's request ID, counts
// attempts and refusals, and records one span per HTTP round trip.
type transport struct {
	base http.RoundTripper
	tr   *Tracer
}

func (t *transport) RoundTrip(r *http.Request) (*http.Response, error) {
	o, _ := r.Context().Value(opKey{}).(*op)
	if o == nil {
		return t.base.RoundTrip(r)
	}
	o.attempts.Add(1)
	r = r.Clone(r.Context())
	r.Header.Set(server.RequestIDHeader, o.req)
	sp := t.tr.Start(o.span.Load(), "http.roundtrip", o.req)
	resp, err := t.base.RoundTrip(r)
	sp.End()
	if err == nil && (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500) {
		o.refused.Add(1)
	}
	return resp, err
}

// clients holds the HTTP client state of one run: one connection pool per
// client goroutine, so the check and the session client never share a
// connection.
type clients struct {
	tr       *Tracer
	name     string
	seq      atomic.Int64
	refused  atomic.Int64
	retries  atomic.Int64
	payloads map[*input][]byte
}

func newClients(tr *Tracer, name string, ins []*input) (*clients, error) {
	c := &clients{tr: tr, name: name, payloads: map[*input][]byte{}}
	for _, in := range ins {
		data, err := os.ReadFile(in.path)
		if err != nil {
			return nil, err
		}
		c.payloads[in] = data
	}
	return c, nil
}

func (c *clients) client(baseURL string) *server.Client {
	tp := &transport{base: &http.Transport{MaxIdleConnsPerHost: 2}, tr: c.tr}
	return &server.Client{BaseURL: baseURL, HTTPClient: &http.Client{Transport: tp}}
}

func closeIdle(cl *server.Client) {
	cl.HTTPClient.Transport.(*transport).base.(*http.Transport).CloseIdleConnections()
}

func (c *clients) newOp(ctx context.Context, kind string) (context.Context, *op, *active) {
	o := &op{req: fmt.Sprintf("pb-%s-%s-%d", c.name, kind, c.seq.Add(1))}
	root := c.tr.Start(0, "client."+kind, o.req)
	return context.WithValue(ctx, opKey{}, o), o, root
}

// settle folds an operation's transport counters into the run totals and
// turns a refusal into a failure of the operation.
func (c *clients) settle(o *op, err error) error {
	c.refused.Add(o.refused.Load())
	c.retries.Add(o.attempts.Load() - o.calls.Load())
	if err == nil && o.refused.Load() > 0 {
		err = fmt.Errorf("%s: refused %d times", o.req, o.refused.Load())
	}
	return err
}

// check posts one payload to /v1/check and verifies the report.
func (c *clients) check(ctx context.Context, cl *server.Client, in *input) (interval, error) {
	ctx, o, root := c.newOp(ctx, "check")
	o.call(root.ID())
	ck := startClock()
	rep, err := cl.CheckAnalysesContext(ctx, bytes.NewReader(c.payloads[in]), "", "")
	lat := ck.stop()
	root.End()
	if err == nil {
		err = compareReport("check "+in.spec.name, in, rep)
	}
	return lat, c.settle(o, err)
}

// session streams one payload through a session in 64 KiB feeds and
// verifies the final report. feeds receives each feed's latency.
func (c *clients) session(ctx context.Context, cl *server.Client, in *input, feeds *[]float64) (interval, error) {
	const chunk = 64 << 10
	ctx, o, root := c.newOp(ctx, "session")
	defer root.End()
	data := c.payloads[in]
	ck := startClock()
	err := func() error {
		sp := c.tr.Start(root.ID(), "session.create", o.req)
		o.call(sp.ID())
		sess, err := cl.NewSessionAnalysesContext(ctx, "", in.spec.analyses)
		sp.End()
		if err != nil {
			return err
		}
		for off := 0; off < len(data); off += chunk {
			sp := c.tr.Start(root.ID(), "session.feed", o.req)
			o.call(sp.ID())
			fs := time.Now()
			_, err := sess.FeedContext(ctx, data[off:min(off+chunk, len(data))])
			if feeds != nil {
				*feeds = append(*feeds, float64(time.Since(fs))/1e6)
			}
			sp.End()
			if err != nil {
				o.call(sp.ID())
				sess.CloseContext(ctx) // the feed error is what is reported
				return err
			}
		}
		sp = c.tr.Start(root.ID(), "session.close", o.req)
		o.call(sp.ID())
		rep, err := sess.CloseContext(ctx)
		sp.End()
		if err != nil {
			return err
		}
		return compareReport("session "+in.spec.name, in, rep)
	}()
	return ck.stop(), c.settle(o, err)
}

// serveResult is what the two clients measured, turn by turn.
type serveResult struct {
	turns []serveTurn
	refs  []refTimes // before each turn and after the last
}

// serveTurn is one turn of each client: the check latencies, and the
// session streamed after them (session is nil if it failed).
type serveTurn struct {
	checks  []interval
	session *input
	streamT interval
}

// checkSlice is how long the check client runs before the session client
// takes its turn.
const checkSlice = time.Second

// runServe drives the router with two closed-loop clients for budget,
// taking turns: the check client posts the check payloads round-robin for
// checkSlice, then the session client streams the next session payload.
// It runs at least one turn per session payload. The reference work runs
// before each turn and once at the end. Run side by side, the two
// clients, the router and the backend's pipeline goroutines are more
// runnable threads than a 2-vCPU machine has CPUs, and the latencies
// measured the scheduler: on identical code the middle half of ten runs'
// check p50 spread over up to 40% of its median.
func runServe(st *stack, c *clients, checks, sessions []*input, budget time.Duration, ref *refWork, t *tally) serveResult {
	var res serveResult
	ctx := context.Background()
	deadline := time.Now().Add(budget)
	checker, streamer := c.client(st.routerURL), c.client(st.routerURL)
	defer closeIdle(checker)
	defer closeIdle(streamer)
	next := 0
	for turn := 0; turn < len(sessions) || time.Now().Before(deadline); turn++ {
		res.refs = append(res.refs, ref.sample())
		var tn serveTurn
		end := time.Now().Add(checkSlice)
		for i := 0; i == 0 || time.Now().Before(end); i++ {
			in := checks[next%len(checks)]
			next++
			lat, err := c.check(ctx, checker, in)
			t.record(err)
			if err != nil {
				break
			}
			tn.checks = append(tn.checks, lat)
		}
		in := sessions[turn%len(sessions)]
		d, err := c.session(ctx, streamer, in, nil)
		t.record(err)
		if err == nil {
			tn.session, tn.streamT = in, d
		}
		res.turns = append(res.turns, tn)
	}
	res.refs = append(res.refs, ref.sample())
	return res
}
