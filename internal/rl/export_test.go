package rl

// Store records one interaction step, copying obs and mask into the flat
// epoch arrays (callers may reuse their buffers immediately).
func (b *Buffer) Store(obs []float64, mask []bool, act int, rew, val, logp float64) {
	b.setDims(len(obs), len(mask))
	b.Obs = append(b.Obs, obs...)
	b.Masks = append(b.Masks, mask...)
	b.Acts = append(b.Acts, act)
	b.Rews = append(b.Rews, rew)
	b.Vals = append(b.Vals, val)
	b.Logps = append(b.Logps, logp)
}
