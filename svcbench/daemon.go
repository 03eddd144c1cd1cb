package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"adasim/internal/client"
	"adasim/internal/service"
)

// daemon is one adasimd instance served on a loopback listener, wired
// as cmd/adasimd wires it: the real Dispatcher behind service.NewServer
// in an http.Server with the daemon's default timeouts.
type daemon struct {
	d         *service.Dispatcher
	srv       *http.Server
	base      string
	serveDone chan error

	closeOnce sync.Once
	closeErr  error
}

// daemonConfig is cmd/adasimd's default configuration (its flag
// defaults) with the given cache and journal directories. The logger is
// the daemon's text handler at its default info level; it writes to
// io.Discard so the benchmark pays for formatting every record, as the
// daemon does, without timing whatever the caller connects stderr to.
func daemonConfig(cacheDir, journalDir string) service.Config {
	return service.Config{
		QueueSize:    64,
		CacheEntries: 4096,
		CacheDir:     cacheDir,
		JournalDir:   journalDir,
		Logger:       slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
	}
}

// boot starts a dispatcher on cfg and serves it on 127.0.0.1.
func boot(cfg service.Config) (*daemon, error) {
	d, err := service.NewDispatcher(cfg)
	if err != nil {
		return nil, fmt.Errorf("boot dispatcher: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = d.Drain(context.Background())
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{
		Handler:           service.NewServer(d),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	dm := &daemon{d: d, srv: srv, base: "http://" + ln.Addr().String(), serveDone: make(chan error, 1)}
	go func() { dm.serveDone <- srv.Serve(ln) }()
	return dm, nil
}

// close drains the dispatcher (every accepted task finishes), then
// shuts the HTTP server down and waits for its serve loop to return.
// Later calls return the first call's result, so error paths can defer
// it.
func (dm *daemon) close() error {
	dm.closeOnce.Do(func() { dm.closeErr = dm.shutdown() })
	return dm.closeErr
}

func (dm *daemon) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	drainErr := dm.d.Drain(ctx)
	shutErr := dm.srv.Shutdown(ctx)
	if err := <-dm.serveDone; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	if drainErr != nil {
		return drainErr
	}
	return shutErr
}

// transport is the benchmark's one HTTP connection pool. The default
// transport keeps two idle connections per host; at a few hundred
// tasks per second (three requests each) the rest would be dialed and
// torn down per request, timing TCP set-up and piling up TIME_WAIT
// sockets instead of the service.
var transport = &http.Transport{
	MaxIdleConns:        64,
	MaxIdleConnsPerHost: 64,
	IdleConnTimeout:     90 * time.Second,
	DisableCompression:  true,
}

// newClient returns a client of base that never retries: a 429 or 503
// is a refused request and counts as failed.
func newClient(base string) *client.Client {
	c := client.New(base)
	c.Retries = -1
	c.HTTP = http.Client{Transport: transport}
	return c
}

// bootMeasured boots a daemon on cfg boots times; each boot is timed
// from NewDispatcher until the probe submission is accepted. Every boot
// but the last drains after its probe finishes; the last stays up and
// is returned. setup_s is the median boot time in unstolen time
// (steal.go), with the steal share read over the whole set-up; the
// wall-clock median is recorded beside it.
func bootMeasured(r *result, cfg service.Config, boots int, probe func(c *client.Client) (string, error)) (*daemon, error) {
	var times []float64
	var steal stealMeter
	endSteal := steal.span()
	for i := 0; i < boots; i++ {
		t0 := time.Now()
		dm, err := boot(cfg)
		if err != nil {
			return nil, err
		}
		c := newClient(dm.base)
		id, err := probe(c)
		if err != nil {
			_ = dm.close()
			return nil, fmt.Errorf("boot probe: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if err := c.WatchTask(id, func(service.TimelineEvent) {}); err != nil {
			_ = dm.close()
			return nil, fmt.Errorf("boot probe watch: %w", err)
		}
		if i == boots-1 {
			endSteal()
			r.e2e["setup_s"] = median(times) * steal.unstolen()
			r.extra["wall.setup_s"] = median(times)
			r.extra["setup.steal_share"] = steal.share()
			return dm, nil
		}
		if err := dm.close(); err != nil {
			return nil, err
		}
	}
	return nil, errors.New("no boots")
}

// exposition is a parsed Prometheus text scrape: series (name plus
// label set, as printed) to value.
type exposition map[string]float64

// scrapeMetrics fetches and parses GET /metrics.
func scrapeMetrics(c *client.Client) (exposition, error) {
	b, err := c.GetRaw("/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return parseExposition(string(b)), nil
}

// parseExposition parses the sample lines of a text exposition;
// comments and unparsable lines are skipped.
func parseExposition(text string) exposition {
	out := exposition{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sum adds every series of the metric name (any label set).
func (e exposition) sum(name string) float64 {
	var s float64
	for k, v := range e {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// delta returns after minus before for a counter summed over labels.
func delta(before, after exposition, name string) float64 {
	return after.sum(name) - before.sum(name)
}

// histQuantile estimates the q-quantile of the observations a
// histogram recorded between two scrapes, interpolating linearly
// inside the bucket that holds it (as Prometheus' histogram_quantile
// does). Series of every label set are pooled. NaN when nothing was
// observed.
func histQuantile(before, after exposition, name string, q float64) float64 {
	counts := map[float64]float64{}
	prefix := name + "_bucket{"
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le := labelValue(k, "le")
		ub, err := strconv.ParseFloat(le, 64)
		if le == "+Inf" {
			ub, err = math.Inf(1), nil
		}
		if err != nil {
			continue
		}
		counts[ub] += v - before[k]
	}
	bounds := make([]float64, 0, len(counts))
	for ub := range counts {
		bounds = append(bounds, ub)
	}
	bounds = sorted(bounds)
	if len(bounds) == 0 || counts[bounds[len(bounds)-1]] <= 0 {
		return math.NaN()
	}
	total := counts[bounds[len(bounds)-1]]
	rank := q * total
	prevUB, prevCount := 0.0, 0.0
	for _, ub := range bounds {
		c := counts[ub]
		if c >= rank {
			if ub == math.Inf(1) {
				return prevUB
			}
			if c == prevCount {
				return ub
			}
			return prevUB + (ub-prevUB)*(rank-prevCount)/(c-prevCount)
		}
		prevUB, prevCount = ub, c
	}
	return prevUB
}

// labelValue extracts label's value from a printed series name.
func labelValue(series, label string) string {
	key := label + `="`
	i := strings.Index(series, key)
	if i < 0 {
		return ""
	}
	rest := series[i+len(key):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return rest[:j]
}

// health fetches GET /healthz.
func health(c *client.Client) (service.HealthResponse, error) {
	var h service.HealthResponse
	if err := c.GetJSON("/healthz", &h); err != nil {
		return h, fmt.Errorf("healthz: %w", err)
	}
	return h, nil
}
