package main

import (
	"math/rand"
	"time"

	"bolt"
)

// window is the number of requests the single client keeps
// outstanding in every serving workload.
const window = 64

// checkEvery is the stride at which serving responses are compared
// with their input's reference output.
const checkEvery = 64

// poissonArrivals returns n arrival times, in modeled seconds, of a
// seeded Poisson process: exponential gaps, cumulatively summed, then
// scaled so that the last arrival falls at exactly n*meanGap. Every
// seed therefore offers the same load over the same modeled span and
// differs only in where the bursts fall. Stamped onto requests as
// SimArrival they make the modeled clock an open loop: a worker cannot
// start a batch before its last member was due, and SimLatency counts
// from the due time.
func poissonArrivals(n int, meanGap float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64()
		out[i] = t
	}
	scale := float64(n) * meanGap / t
	for i := range out {
		out[i] *= scale
	}
	return out
}

// priorityPattern returns a seeded shuffle of the serve_mixed class
// mix over eight consecutive requests: 1 high, 2 bulk, 5 normal.
func priorityPattern(seed int64) [8]bolt.Priority {
	p := [8]bolt.Priority{
		bolt.PriorityHigh, bolt.PriorityBulk, bolt.PriorityBulk,
		bolt.PriorityNormal, bolt.PriorityNormal, bolt.PriorityNormal,
		bolt.PriorityNormal, bolt.PriorityNormal,
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// randomInputs returns k single-sample FP16 tensors of the given shape,
// drawn uniformly from [-1, 1] by seed.
func randomInputs(k int, seed int64, shape ...int) []*bolt.Tensor {
	out := make([]*bolt.Tensor, k)
	for i := range out {
		t := bolt.NewTensor(bolt.FP16, shape...)
		t.FillRandom(seed*7919+int64(i), 1)
		out[i] = t
	}
	return out
}

// closedLoop drives n requests from the calling goroutine with at most
// win outstanding: it submits until the window is full, then waits for
// the oldest outstanding request before submitting the next. done is
// called once per request, in submission order, with the host times at
// which the request was submitted and observed complete. One clock
// reading serves as the completion of request i and the submission of
// request i+win, so the generator adds one time.Now per request.
func closedLoop[R any](n, win int, submit func(i int) (<-chan R, error), done func(i int, r R, submitted, completed time.Time)) error {
	if win > n {
		win = n
	}
	chans := make([]<-chan R, win)
	at := make([]time.Time, win)
	now := time.Now()
	for i := 0; i < n+win; i++ {
		slot := i % win
		if i >= win {
			r := <-chans[slot]
			now = time.Now()
			done(i-win, r, at[slot], now)
		}
		if i < n {
			at[slot] = now
			ch, err := submit(i)
			if err != nil {
				return err
			}
			chans[slot] = ch
		}
	}
	return nil
}
