package difftest

// Delta-debugging shrinker: given divergent Params, greedily search for
// smaller Params that still diverge, one dimension at a time, until a
// fixpoint. "Smaller" means fewer bits, fewer terms, fewer conjuncts,
// and cleared boolean knobs — the instance a human debugs first.

// shrinkStep proposes the candidate reductions of p, most aggressive
// first per dimension. Every candidate is structurally valid (Generate
// accepts it); dimensional minima are respected (filter depth stays a
// power of two >= 2, pipeline regs stay 2).
func shrinkStep(p Params) []Params {
	var out []Params
	try := func(q Params) { out = append(out, q) }

	switch p.Kind {
	case KindRandom:
		for v := 1; v < p.StateBits; v++ {
			q := p
			q.StateBits = v
			try(q)
		}
		for v := 0; v < p.InputBits; v++ {
			q := p
			q.InputBits = v
			try(q)
		}
		if p.Terms > 1 {
			q := p
			q.Terms = p.Terms - 1
			try(q)
		}
		if p.Parts > 1 {
			q := p
			q.Parts = p.Parts - 1
			try(q)
		}
		if p.Constraint {
			q := p
			q.Constraint = false
			try(q)
		}
	case KindFIFO:
		if p.Depth > 1 {
			q := p
			q.Depth = p.Depth - 1
			try(q)
		}
		if p.Width > 1 {
			q := p
			q.Width = p.Width - 1
			try(q)
		}
	case KindFilter:
		if p.Depth > 2 {
			q := p
			q.Depth = p.Depth / 2
			try(q)
		}
		if p.Width > 1 {
			q := p
			q.Width = p.Width - 1
			try(q)
		}
	case KindPipeline:
		if p.Depth > 2 {
			q := p
			q.Depth = p.Depth / 2
			try(q)
		}
		if p.Width > 1 {
			q := p
			q.Width = p.Width - 1
			try(q)
		}
	}
	if p.ConstGood {
		q := p
		q.ConstGood = false
		try(q)
	}
	if p.Assist {
		q := p
		q.Assist = false
		try(q)
	}
	return out
}

// Shrink minimizes divergent Params: it repeatedly applies the first
// candidate reduction that still produces a divergent report, until no
// reduction diverges or maxSteps generations were spent. The input is
// returned unchanged if it does not diverge itself.
func Shrink(p Params, cfg Config, maxSteps int) Params {
	check := func(q Params) bool {
		inst, err := Generate(q)
		if err != nil {
			return false
		}
		return RunInstance(inst, cfg).Divergent()
	}
	if !check(p) {
		return p
	}
	if maxSteps <= 0 {
		maxSteps = 64
	}
	cur := p
	for step := 0; step < maxSteps; step++ {
		reduced := false
		for _, q := range shrinkStep(cur) {
			if check(q) {
				cur = q
				reduced = true
				break
			}
		}
		if !reduced {
			break
		}
	}
	return cur
}
