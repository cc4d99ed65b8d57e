package gpusim

import (
	"fmt"
	"testing"
)

func BenchmarkLaunchOverhead(b *testing.B) {
	d := MustNewDevice(HD5850())
	for _, groups := range []int{16, 256} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := d.Launch("noop", func(wi *Item) {}, LaunchParams{
					Global: groups * 64, Local: 64,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, groups := range []int{16, 256} {
		b.Run(fmt.Sprintf("group-form/groups=%d", groups), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := d.LaunchGroups("noop", func(g *Group) {}, LaunchParams{
					Global: groups * 64, Local: 64,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBarrier(b *testing.B) {
	d := MustNewDevice(HD5850())
	for _, local := range []int{64, 256} {
		b.Run(fmt.Sprintf("local=%d", local), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := d.Launch("barrier", func(wi *Item) {
					for k := 0; k < 16; k++ {
						wi.Barrier()
					}
				}, LaunchParams{Global: 4 * local, Local: local}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, local := range []int{64, 256} {
		b.Run(fmt.Sprintf("group-form/local=%d", local), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := d.LaunchGroups("barrier", func(g *Group) {
					for k := 0; k < 16; k++ {
						g.Barrier()
					}
				}, LaunchParams{Global: 4 * local, Local: local}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCountedAccess(b *testing.B) {
	d := MustNewDevice(HD5850())
	buf := d.NewBufferF32("data", 1<<16)
	b.Run("counted-loads", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.Launch("loads", func(wi *Item) {
				var sum float32
				for j := 0; j < 1024; j++ {
					sum += wi.LoadGlobalF32(buf, j)
				}
				_ = sum
			}, LaunchParams{Global: 256, Local: 64}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("raw-bulk-charged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.Launch("raw", func(wi *Item) {
				data := wi.RawGlobalF32(buf)
				wi.ChargeGlobal(4*1024, 0)
				var sum float32
				for j := 0; j < 1024; j++ {
					sum += data[j]
				}
				_ = sum
			}, LaunchParams{Global: 256, Local: 64}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkCostModel(b *testing.B) {
	d := MustNewDevice(HD5850())
	res, err := d.Launch("work", func(wi *Item) {
		wi.Flops(1000)
		wi.ChargeGlobal(64, 16)
	}, LaunchParams{Global: 1024 * 64, Local: 64})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Timing = d.cost(res)
	}
}
