package obs

import "sync/atomic"

// Pipelined sink delivery, the software analogue of the paper's ibuffer and
// host-interface kernel (§4, §5.1): the traced design writes trace words
// into local storage without waiting, and a separate consumer drains them.
// Inside a drive-loop call (Batch ... Sync) the run goroutine still builds
// every Event and Sample value, but appends it to a batch instead of calling
// the sink; full batches go over a bounded channel to one delivery goroutine
// that calls the sink in append order. The sink therefore sees exactly the
// calls, values and order of synchronous delivery, only later, and every
// Sync (each drive-loop return, and Finalize) catches it up.
//
// Outside Batch ... Sync delivery is synchronous, so direct Recorder use,
// replay and Launch keep per-append delivery.

// batchRecords is the hand-off unit: records per batch.
const batchRecords = 256

// sinkRecord is one sink call waiting in a batch.
type sinkRecord struct {
	ev     Event
	samp   Sample
	sample bool
}

// pipe is the recorder's side of the hand-off. The channels and buffers are
// made at the first hand-off and kept for the recorder's life; the delivery
// goroutine runs only between that hand-off and the next Sync.
type pipe struct {
	on      bool // records batch instead of going straight to the sink
	running bool // a delivery goroutine is live
	batch   []sinkRecord
	full    chan []sinkRecord
	free    chan []sinkRecord
	done    chan any // the goroutine's exit: the sink's panic value, or nil
	failed  atomic.Bool
}

// Batch turns on pipelined delivery until the next Sync. It is a no-op
// without a sink or after Finalize. The simulator calls it on entry to its
// drive loop.
func (r *Recorder) Batch() {
	r.pipe.on = r.cfg.Sink != nil && !r.finalized
}

// Sync delivers every batched record to the sink, joins the delivery
// goroutine and turns batching off; the sink is caught up when it returns.
// With no goroutine running the remainder is delivered inline, so a short
// drive-loop call starts none. A panic the sink raised on the delivery
// goroutine is re-raised here, on the caller's goroutine, with the same
// value.
func (r *Recorder) Sync() {
	p := &r.pipe
	p.on = false
	if !p.running {
		b := p.batch
		p.batch = b[:0]
		for i := range b {
			deliver(r.cfg.Sink, &b[i])
		}
		clear(b)
		return
	}
	if len(p.batch) > 0 {
		p.full <- p.batch
		p.batch = nil
	}
	p.full <- nil
	pv := <-p.done
	p.running = false
	p.failed.Store(false)
	if p.batch == nil {
		select {
		case p.batch = <-p.free:
		default:
		}
	}
	if pv != nil {
		panic(pv)
	}
}

// emitEvent hands one materialized event to the sink, or to the batch.
func (r *Recorder) emitEvent(e Event) {
	if !r.pipe.on {
		r.cfg.Sink.Event(e)
		return
	}
	r.enqueue(sinkRecord{ev: e})
}

// emitSample hands one materialized sample to the sink, or to the batch.
func (r *Recorder) emitSample(s Sample) {
	if !r.pipe.on {
		r.cfg.Sink.Sample(s)
		return
	}
	r.enqueue(sinkRecord{samp: s, sample: true})
}

func (r *Recorder) enqueue(rec sinkRecord) {
	p := &r.pipe
	if p.batch == nil {
		p.batch = make([]sinkRecord, 0, batchRecords)
	}
	p.batch = append(p.batch, rec)
	if len(p.batch) == batchRecords {
		r.handOff()
	}
}

// handOff sends the current batch to the delivery goroutine, starting it if
// needed, and takes a recycled buffer for the next one. The channel holds
// one batch besides the one being delivered, so the run goroutine blocks
// here when the sink falls behind. A sink that panicked is re-raised at the
// first hand-off after it, through Sync.
func (r *Recorder) handOff() {
	p := &r.pipe
	if p.full == nil {
		p.full = make(chan []sinkRecord, 1)
		// Three buffers circulate (filling, queued, delivering); free
		// holds the two the producer is not filling.
		p.free = make(chan []sinkRecord, 2)
		p.done = make(chan any)
	}
	if !p.running {
		p.running = true
		go deliverLoop(r.cfg.Sink, p.full, p.free, p.done, &p.failed)
	}
	p.full <- p.batch
	select {
	case p.batch = <-p.free:
	default:
		p.batch = nil
	}
	if p.failed.Load() {
		r.Sync()
	}
}

// deliverLoop is the delivery goroutine: it calls the sink for every handed-
// off record in order, recycles the batch buffers, and exits at the nil
// batch Sync sends. After a sink panic it discards the rest, so the run
// goroutine never blocks on a dead consumer, and reports the panic value at
// exit.
func deliverLoop(sink Sink, full <-chan []sinkRecord, free chan<- []sinkRecord, done chan<- any, failed *atomic.Bool) {
	var pv any
	for b := range full {
		if b == nil {
			done <- pv
			return
		}
		if pv == nil {
			if pv = deliverBatch(sink, b); pv != nil {
				failed.Store(true)
			}
		}
		clear(b)
		select {
		case free <- b[:0]:
		default:
		}
	}
}

// deliverBatch delivers one batch, recovering a sink panic as its value.
func deliverBatch(sink Sink, b []sinkRecord) (pv any) {
	defer func() { pv = recover() }()
	for i := range b {
		deliver(sink, &b[i])
	}
	return nil
}

func deliver(sink Sink, rec *sinkRecord) {
	if rec.sample {
		sink.Sample(rec.samp)
	} else {
		sink.Event(rec.ev)
	}
}
