package bench

import (
	"bolt/internal/gpu"
	"bolt/internal/rt"
	"bolt/internal/serve"
	"bolt/internal/tensor"
)

// Every serving experiment replays a prepared request stream through
// flood. The stream's outcome must depend only on modeled costs and
// simulated arrivals, never on host timing, so flood gates every
// variant compile shut until the whole stream is queued: nothing can
// be priced, so nothing can dispatch, and InferAsync returns with its
// request already queued. Once the gate opens, every planning decision
// sees the full queue, so host scheduling noise cannot change which
// rows coalesce.

// floodTenant is one model a flood deploys.
type floodTenant struct {
	name    string
	compile serve.CompileFunc
	opts    serve.DeployOptions
}

// floodReq is one request of a flood's stream.
type floodReq struct {
	model string
	input map[string]*tensor.Tensor
	opts  serve.InferOptions
}

// stream builds a one-model request stream: request i carries
// inputs[i] at priority pri and arrives at arrivals[i] on the
// simulated clock.
func stream(model string, inputs []map[string]*tensor.Tensor, arrivals []float64, pri serve.Priority) []floodReq {
	reqs := make([]floodReq, len(inputs))
	for i, in := range inputs {
		reqs[i] = floodReq{model: model, input: in, opts: serve.InferOptions{Priority: pri, SimArrival: arrivals[i]}}
	}
	return reqs
}

// seededInputs returns n one-tensor FP16 inputs bound to name, input i
// filled from seed i+1.
func seededInputs(n int, name string, shape ...int) []map[string]*tensor.Tensor {
	inputs := make([]map[string]*tensor.Tensor, n)
	for i := range inputs {
		in := tensor.New(tensor.FP16, shape...)
		in.FillRandom(int64(i+1), 1)
		inputs[i] = map[string]*tensor.Tensor{name: in}
	}
	return inputs
}

// flood starts a server whose queue holds the whole stream, deploys
// the tenants with their variant compiles gated shut, queues every
// request, opens the gate, waits for every result, and returns the
// closed server for its Stats and ModelStats. A failed deploy, enqueue
// or request panics: an experiment's stream must be served in full.
func flood(opts serve.ServerOptions, tenants []floodTenant, reqs []floodReq) *serve.Server {
	opts.QueueDepth = len(reqs)
	srv := serve.NewServer(opts)
	defer srv.Close()
	gate := make(chan struct{})
	for _, t := range tenants {
		gated := func(dev *gpu.Device, batch int) (*rt.Module, error) {
			<-gate
			return t.compile(dev, batch)
		}
		if err := srv.Deploy(t.name, gated, t.opts); err != nil {
			panic(err)
		}
	}
	chans := make([]<-chan serve.Result, len(reqs))
	for i, r := range reqs {
		ch, err := srv.InferAsync(r.model, r.input, r.opts)
		if err != nil {
			panic(err)
		}
		chans[i] = ch
	}
	close(gate)
	for _, ch := range chans {
		if res := <-ch; res.Err != nil {
			panic(res.Err)
		}
	}
	return srv
}
