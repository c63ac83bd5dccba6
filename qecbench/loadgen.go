package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"time"
)

// conn is a minimal synchronous HTTP/1.1 client on one keep-alive
// connection: the request is written by hand and the response parsed with
// http.ReadResponse, so no client goroutines run between a send and its
// answer. In paired hot-serial runs on a 2-core VM, net/http.Client on one
// connection instead raised the client-seen p50 from 0.11 to 0.17 ms and the
// server's CPU per request from 0.12 to 0.16 ms, so it would measure itself
// more than the server.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	wbuf []byte
	body bytes.Buffer
}

func newConn(addr string, c net.Conn) *conn {
	hc := &conn{addr: addr}
	if c != nil {
		hc.c, hc.br = c, bufio.NewReaderSize(c, 64<<10)
	}
	return hc
}

func (hc *conn) close() {
	if hc.c != nil {
		hc.c.Close()
		hc.c = nil
	}
}

// do sends one request and reads the whole answer. The returned body is
// valid until the next call. Any error closes the connection; the next call
// dials again.
func (hc *conn) do(method, path string, body []byte) (status int, tier string, resp []byte, err error) {
	if hc.c == nil {
		c, err := net.DialTimeout("tcp", hc.addr, 5*time.Second)
		if err != nil {
			return 0, "", nil, err
		}
		hc.c, hc.br = c, bufio.NewReaderSize(c, 64<<10)
	}
	w := append(hc.wbuf[:0], method...)
	w = append(w, ' ')
	w = append(w, path...)
	w = append(w, " HTTP/1.1\r\nHost: qecbench\r\n"...)
	if body != nil {
		w = append(w, "Content-Type: application/json\r\nContent-Length: "...)
		w = strconv.AppendInt(w, int64(len(body)), 10)
		w = append(w, "\r\n"...)
	}
	w = append(w, "\r\n"...)
	w = append(w, body...)
	hc.wbuf = w
	if _, err := hc.c.Write(w); err != nil {
		hc.close()
		return 0, "", nil, err
	}
	r, err := http.ReadResponse(hc.br, nil)
	if err != nil {
		hc.close()
		return 0, "", nil, err
	}
	hc.body.Reset()
	_, err = hc.body.ReadFrom(r.Body)
	r.Body.Close()
	if err != nil {
		hc.close()
		return 0, "", nil, err
	}
	if r.Close {
		hc.close()
	}
	return r.StatusCode, r.Header.Get("X-Qec-Tier"), hc.body.Bytes(), nil
}

// record is the client's view of one request of the timed window. Offsets
// are from the window's start.
type record struct {
	req *request
	// sent and done bracket the exchange on the wire.
	sent, done time.Duration
	status     int
	tier       string
	score      float64
	body       []byte // kept for requests under output check
	err        error
}

// latency is the request's latency as its user sees it: from the send to
// the whole answer.
func (r *record) latency() time.Duration { return r.done - r.sent }

// ok reports a 200 answer.
func (r *record) ok() bool { return r.err == nil && r.status == http.StatusOK }

// send runs one request on hc and fills the outcome fields of rec.
func send(hc *conn, rec *record, t0 time.Time) {
	r := rec.req
	rec.sent = time.Since(t0)
	status, tier, body, err := hc.do("POST", r.ep.path(), r.body)
	rec.done = time.Since(t0)
	rec.status, rec.tier, rec.err = status, tier, err
	if err != nil || status != http.StatusOK {
		return
	}
	if r.ep == epExpand {
		rec.score = answerScore(body)
	}
	if r.check {
		rec.body = append([]byte(nil), body...)
	}
}

// answerScore decodes the Eq. 1 score of an /expand answer. NaN means the
// answer had none.
func answerScore(body []byte) float64 {
	var a struct {
		Score *float64 `json:"score"`
	}
	if err := json.Unmarshal(body, &a); err != nil || a.Score == nil {
		return math.NaN()
	}
	return *a.Score
}

// closedLoop sends the stream's requests one after another on hc for dur.
// The window starts at t0.
func closedLoop(hc *conn, s *stream, t0 time.Time, dur time.Duration) ([]record, error) {
	recs := make([]record, 0, 1<<16)
	for time.Since(t0) < dur {
		rec := record{req: s.next()}
		if rec.req == nil {
			return nil, errColdExhausted
		}
		send(hc, &rec, t0)
		recs = append(recs, rec)
	}
	return recs, nil
}

// sample is one reading of the server's CPU and the host's steal.
type sample struct {
	at   time.Duration
	cpu  time.Duration
	host hostCPU
}

// sampler reads the server's CPU time and the host's CPU counters at the
// window's start and at each of the buckets' ends.
type sampler struct {
	pid     int
	samples []sample
	err     error
	done    chan struct{}
}

func startSampler(pid int, t0 time.Time, dur time.Duration, buckets int) *sampler {
	sp := &sampler{pid: pid, done: make(chan struct{})}
	go func() {
		defer close(sp.done)
		for i := 0; i <= buckets; i++ {
			// The Go timer, not a blocking nanosleep, which would hold the
			// closed loop's only P until sysmon retakes it.
			time.Sleep(time.Until(t0.Add(dur * time.Duration(i) / time.Duration(buckets))))
			cpu, err := taskCPU(pid)
			if err != nil {
				sp.err = err
				return
			}
			sp.samples = append(sp.samples, sample{at: time.Since(t0), cpu: cpu, host: readHostCPU()})
		}
	}()
	return sp
}

// wait returns the samples once the last bucket has been read.
func (sp *sampler) wait() ([]sample, error) {
	<-sp.done
	if sp.err != nil {
		return nil, fmt.Errorf("sample server CPU: %w", sp.err)
	}
	return sp.samples, nil
}
