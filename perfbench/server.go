package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
)

// maxConns is the number of client connections (and client goroutines)
// every serve workload uses: one per core of the 2-core reference host.
const maxConns = 2

// fsserve is an in-process fsserve: service.New with production defaults
// behind a loopback http.Server, request logs discarded.
type fsserve struct {
	svc    *service.Server
	hs     *http.Server
	addr   string // host:port of the loopback listener
	client *http.Client
	served chan error
}

// startServer starts a server and waits until /healthz answers.
func startServer() (*fsserve, error) {
	svc := service.New(service.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	f := &fsserve{
		svc:    svc,
		hs:     &http.Server{Handler: svc.Handler()},
		addr:   ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		}},
	}
	go func() { f.served <- f.hs.Serve(ln) }()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := f.client.Get("http://" + f.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return f, nil
			}
		}
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("fsserve not ready after 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close drains the server and waits for its serve goroutine to return.
func (f *fsserve) close() error {
	f.svc.BeginShutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := f.hs.Shutdown(ctx)
	if serr := <-f.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	f.client.CloseIdleConnections()
	if cerr := f.svc.Close(); err == nil {
		err = cerr
	}
	return err
}

// conn is one client connection that speaks HTTP/1.1 keep-alive itself:
// a request is one write and its response one read, both on the calling
// goroutine. http.Transport would hand every request to a writer and a
// reader goroutine of the connection, and each such hand-off adds a
// wake-up to the timed latency of a 0.2 ms cache hit. A conn redials
// after an error or a response that closes the connection.
type conn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

func (f *fsserve) dial() *conn { return &conn{addr: f.addr} }

// post sends one JSON body and reads the whole response.
func (c *conn) post(path string, body []byte) (reply, error) {
	if c.nc == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return reply{}, err
		}
		c.nc, c.br, c.bw = nc, bufio.NewReader(nc), bufio.NewWriter(nc)
	}
	rep, keep, err := c.roundTrip(path, body)
	if err != nil || !keep {
		c.close()
	}
	return rep, err
}

func (c *conn) roundTrip(path string, body []byte) (reply, bool, error) {
	fmt.Fprintf(c.bw, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, c.addr, len(body))
	c.bw.Write(body)
	if err := c.bw.Flush(); err != nil {
		return reply{}, false, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return reply{}, false, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, false, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: b}, !resp.Close, nil
}

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	cache  string // X-Cache header
	body   []byte
}

// scrape reads /metrics into a map from series (name plus labels, as
// printed) to value.
func (f *fsserve) scrape() (promSample, error) {
	resp, err := f.client.Get("http://" + f.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(promSample)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// promSample is one /metrics scrape.
type promSample map[string]float64

// sum adds every series of the metric name, across label values.
func (p promSample) sum(name string) float64 {
	var t float64
	for series, v := range p {
		if series == name || strings.HasPrefix(series, name+"{") {
			t += v
		}
	}
	return t
}

// delta is end.sum(name) - start.sum(name).
func delta(start, end promSample, name string) float64 { return end.sum(name) - start.sum(name) }
