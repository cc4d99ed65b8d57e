package core

import (
	"repro/internal/gpusim"
	"repro/internal/pp"
)

// jwBuffers bundles the device buffers the jw force kernel consumes on one
// device of a JWParallel plan.
type jwBuffers struct {
	src, pos, lists, desc *gpusim.Buffer
	queueWalks, queueDesc *gpusim.Buffer
	acc                   *gpusim.Buffer
}

// jwKernel builds the jw-parallel force kernel over the given buffers:
// each work-group drains its walk queue; per walk, the interaction list is
// staged tile-by-tile through local memory (unless staged is false, the
// per-lane streaming ablation) and every active lane accumulates its body's
// acceleration.
func jwKernel(b jwBuffers, g, eps2 float32, staged bool) gpusim.GroupFunc {
	return func(grp *gpusim.Group) {
		gid := grp.ID()
		ls := grp.LocalSize()
		lane0 := grp.Lane(0) // charged for the group's broadcast reads
		desc := lane0.RawGlobalI32(b.desc)
		lists := lane0.RawGlobalI32(b.lists)
		src := lane0.RawGlobalF32(b.src)
		posm := lane0.RawGlobalF32(b.pos)
		acc := lane0.RawGlobalF32(b.acc)
		qw := lane0.RawGlobalI32(b.queueWalks)
		qd := lane0.RawGlobalI32(b.queueDesc)
		lds := grp.LDS()
		// Per lane across barriers: position (0..2) and acceleration (3..5).
		priv := grp.Private(6)

		lane0.ChargeGlobal(8, 0) // queue descriptor broadcast
		qBase := int(qd[2*gid+0])
		qLen := int(qd[2*gid+1])

		for qi := 0; qi < qLen; qi++ {
			lane0.ChargeGlobal(4+16, 0) // walk id + walk descriptor broadcast
			w := int(qw[qBase+qi])
			first := int(desc[w*bhDescStride+0])
			count := int(desc[w*bhDescStride+1])
			base := int(desc[w*bhDescStride+2])
			llen := int(desc[w*bhDescStride+3])

			// Lanes below count are active: one body each.
			active := min(count, ls)
			for l := 0; l < active; l++ {
				slot := first + l
				grp.Lane(l).ChargeGlobal(16, 0)
				r := priv[6*l : 6*l+6]
				r[0], r[1], r[2] = posm[4*slot], posm[4*slot+1], posm[4*slot+2]
				r[3], r[4], r[5] = 0, 0, 0
			}

			if staged {
				// j-parallel within the walk: stage list tiles through
				// local memory; every lane helps stage, active lanes
				// consume.
				tiles := (llen + ls - 1) / ls
				for t := 0; t < tiles; t++ {
					kmax := min(llen-t*ls, ls)
					for l := 0; l < kmax; l++ {
						wi := grp.Lane(l)
						idx := lists[base+t*ls+l]
						wi.ChargeGlobal(4, 16) // coalesced index + gathered float4
						wi.ChargeLDS(16)
						lds[4*l+0] = src[4*idx+0]
						lds[4*l+1] = src[4*idx+1]
						lds[4*l+2] = src[4*idx+2]
						lds[4*l+3] = src[4*idx+3]
					}
					grp.Barrier()
					for l := 0; l < active; l++ {
						wi := grp.Lane(l)
						wi.ChargeLDS(16 * kmax)
						wi.Flops(pp.FlopsPerInteraction * kmax)
						wi.Aux(2 * kmax)
						r := priv[6*l : 6*l+6]
						px, py, pz := r[0], r[1], r[2]
						ax, ay, az := r[3], r[4], r[5]
						for k := 0; k < kmax; k++ {
							a := pp.AccumulateInto(px, py, pz,
								lds[4*k], lds[4*k+1], lds[4*k+2], lds[4*k+3], eps2)
							ax += a.X
							ay += a.Y
							az += a.Z
						}
						r[3], r[4], r[5] = ax, ay, az
					}
					grp.Barrier()
				}
			} else {
				// Ablation: per-lane streaming, as in w-parallel.
				for l := 0; l < active; l++ {
					wi := grp.Lane(l)
					wi.ChargeGlobal(20*llen, 0)
					wi.Flops(pp.FlopsPerInteraction * llen)
					wi.Aux(3 * llen)
					r := priv[6*l : 6*l+6]
					px, py, pz := r[0], r[1], r[2]
					var ax, ay, az float32
					for e := 0; e < llen; e++ {
						idx := lists[base+e]
						a := pp.AccumulateInto(px, py, pz,
							src[4*idx], src[4*idx+1], src[4*idx+2], src[4*idx+3], eps2)
						ax += a.X
						ay += a.Y
						az += a.Z
					}
					r[3], r[4], r[5] = ax, ay, az
				}
			}

			for l := 0; l < active; l++ {
				slot := first + l
				grp.Lane(l).ChargeGlobal(16, 0)
				r := priv[6*l : 6*l+6]
				acc[4*slot+0] = r[3] * g
				acc[4*slot+1] = r[4] * g
				acc[4*slot+2] = r[5] * g
				acc[4*slot+3] = 0
			}
		}
	}
}
