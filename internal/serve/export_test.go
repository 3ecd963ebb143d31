package serve

// QueueDepth reports how many callers are waiting for an engine slot right
// now.
func (b *Batcher) QueueDepth() int { return int(b.waiting.Load()) }
