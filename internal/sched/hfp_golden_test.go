package sched

import (
	"fmt"
	"hash/fnv"
	"testing"

	"memsched/internal/platform"
	"memsched/internal/taskgraph"
	"memsched/internal/workload"
)

// mhfpCase is one MHFP.Init call of the golden corpus.
type mhfpCase struct {
	name  string
	build func() *taskgraph.Instance
	k     int
	mem   int64
}

// mhfpResult is what an Init call must reproduce exactly: the charged
// packing cost and the FNV-64a of each GPU's queue.
type mhfpResult struct {
	ops    int64
	queues string // "%016x" per queue, comma-separated
}

// disjointClusters builds an instance whose tasks form groups with no
// data in common: three 3x3 products over private row/column data plus
// four tasks reading one private item each. Affinity merging cannot
// join two groups, so packing reaches the final merge-smallest loop
// whenever K is below the number of groups.
func disjointClusters() *taskgraph.Instance {
	b := taskgraph.NewBuilder("disjoint")
	for c := 0; c < 3; c++ {
		var rows, cols [3]taskgraph.DataID
		for i := range rows {
			rows[i] = b.AddData(fmt.Sprintf("A%d[%d]", c, i), workload.Data2DBytes)
			cols[i] = b.AddData(fmt.Sprintf("B%d[%d]", c, i), workload.Data2DBytes)
		}
		for i := range rows {
			for j := range cols {
				b.AddTask(fmt.Sprintf("C%d[%d,%d]", c, i, j), workload.Flops2D*float64(1+c), rows[i], cols[j])
			}
		}
	}
	for s := 0; s < 4; s++ {
		d := b.AddData(fmt.Sprintf("S[%d]", s), workload.Data2DBytes*int64(1+s))
		b.AddTask(fmt.Sprintf("T[%d]", s), workload.Flops2D, d)
	}
	return b.Build()
}

func mhfpCases() []mhfpCase {
	type inst struct {
		name  string
		build func() *taskgraph.Instance
	}
	var insts []inst
	add := func(name string, build func() *taskgraph.Instance) {
		insts = append(insts, inst{name, build})
	}
	for _, n := range []int{5, 10, 17, 25, 34, 50, 100} {
		add(fmt.Sprintf("matmul2d-%d", n), func() *taskgraph.Instance { return workload.Matmul2D(n) })
	}
	for _, n := range []int{10, 25} {
		add(fmt.Sprintf("matmul2d-rand-%d", n), func() *taskgraph.Instance { return workload.Matmul2DRandomized(n, 1) })
	}
	for _, n := range []int{5, 10} {
		add(fmt.Sprintf("cholesky-%d", n), func() *taskgraph.Instance { return workload.Cholesky(n) })
	}
	for _, n := range []int{50, 150} {
		add(fmt.Sprintf("sparse2d-%d", n), func() *taskgraph.Instance {
			return workload.Sparse2D(n, workload.DefaultSparseKeep, 1)
		})
	}
	for _, n := range []int{4, 8} {
		add(fmt.Sprintf("matmul3d-%d", n), func() *taskgraph.Instance { return workload.Matmul3D(n) })
	}
	add("random-300", func() *taskgraph.Instance { return workload.Random(300, 60, 3, 1) })
	add("disjoint", disjointClusters)
	mems := []struct {
		name  string
		bytes int64
	}{{"tight", 60 * platform.MB}, {"loose", 2 * platform.GB}}
	var cases []mhfpCase
	for _, in := range insts {
		for _, k := range []int{1, 2, 4} {
			for _, m := range mems {
				cases = append(cases, mhfpCase{
					name:  fmt.Sprintf("%s/k%d/%s", in.name, k, m.name),
					build: in.build, k: k, mem: m.bytes,
				})
			}
		}
	}
	return cases
}

func runMHFPGolden(c mhfpCase) mhfpResult {
	inst := c.build()
	v := newFakeView(inst, c.k)
	v.plat.MemoryBytes = c.mem
	s := NewMHFP(true, 0)().(*MHFP)
	s.Init(inst, v)
	res := mhfpResult{ops: v.static}
	var buf [4]byte
	for g, q := range s.queues {
		f := fnv.New64a()
		for _, t := range q {
			for i := range buf {
				buf[i] = byte(uint32(t) >> (8 * i))
			}
			f.Write(buf[:])
		}
		if g > 0 {
			res.queues += ","
		}
		res.queues += fmt.Sprintf("%016x", f.Sum64())
	}
	return res
}

// mhfpGolden pins (charged ops, queue hashes) of every corpus case. The
// table was generated by the map-and-sort packing at commit 6308629;
// the dense affinity index must reproduce it exactly, because the
// charged ops feed the static cost of every mHFP cell and the queues
// fix its whole schedule.
var mhfpGolden = map[string]mhfpResult{
	"matmul2d-5/k1/tight":       {9800, "35abfea17eb5a8ed"},
	"matmul2d-5/k1/loose":       {9800, "6da580b233ba9d0d"},
	"matmul2d-5/k2/tight":       {9798, "be5d86c130d0d506,5359211b2017a53e"},
	"matmul2d-5/k2/loose":       {9798, "273701d35fe312f1,7a8c3d462a640fa9"},
	"matmul2d-5/k4/tight":       {9772, "5c693de02b4dc0b5,e57a59d0c20a79f1,1eb74685f994fda6,ef93ae3763f1f82a"},
	"matmul2d-5/k4/loose":       {9772, "bdff714ee615ed82,e7be4dd79caa47ca,1eb74685f994fda6,4e777062151cda76"},
	"matmul2d-10/k1/tight":      {656700, "a7fa4cbc121cf185"},
	"matmul2d-10/k1/loose":      {656700, "a7fa4cbc121cf185"},
	"matmul2d-10/k2/tight":      {656698, "ff3c75f42c292194,f1bfef031cc71d84"},
	"matmul2d-10/k2/loose":      {656698, "ff3c75f42c292194,f1bfef031cc71d84"},
	"matmul2d-10/k4/tight":      {656672, "2b91be64a4165dd4,9fa6aa263ac34775,6eabcd9ef3265cd4,2a3323dee40b9ac5"},
	"matmul2d-10/k4/loose":      {656672, "2b91be64a4165dd4,9fa6aa263ac34775,6eabcd9ef3265cd4,2a3323dee40b9ac5"},
	"matmul2d-17/k1/tight":      {16008288, "64dddcc01da51eb6"},
	"matmul2d-17/k1/loose":      {16008288, "ad20cace022aea66"},
	"matmul2d-17/k2/tight":      {16008286, "8b25e9af9f8ca846,875cc5daadbd71d5"},
	"matmul2d-17/k2/loose":      {16008286, "bd7a0e872b6d2a19,234b03819b5d2b62"},
	"matmul2d-17/k4/tight":      {16008260, "9890c7312a8fb627,7d08f217bfdb3653,f269f0d84fd2d0f2,12b22bb3398699c5"},
	"matmul2d-17/k4/loose":      {16008260, "a57925388d13adfd,48ce6720c66c5134,46a21fb696e35089,54d3abf6ddee3c23"},
	"matmul2d-25/k1/tight":      {162370000, "e2e782002c3379ef"},
	"matmul2d-25/k1/loose":      {162370000, "a091b4ad5ccfe923"},
	"matmul2d-25/k2/tight":      {162369998, "7123cc6301aa7a16,e6410f8f1d9e8da4"},
	"matmul2d-25/k2/loose":      {162369998, "a5b002c805e6a973,2467ff9548830245"},
	"matmul2d-25/k4/tight":      {162369972, "420fa8bd7f72123d,37a97d093537903d,d4504295d44b6c55,1127a379be076a27"},
	"matmul2d-25/k4/loose":      {162369972, "817e1bbf23956ab2,51d278655b8554cd,4a5ae28466b4687d,bd4c044f22dddb7c"},
	"matmul2d-34/k1/tight":      {1028533660, "1803109a87e8274d"},
	"matmul2d-34/k1/loose":      {1028533660, "1803109a87e8274d"},
	"matmul2d-34/k2/tight":      {1028533658, "7e7674d36f92fd58,80113c78a88fc278"},
	"matmul2d-34/k2/loose":      {1028533658, "7e7674d36f92fd58,80113c78a88fc278"},
	"matmul2d-34/k4/tight":      {1028533632, "504e2c3d61754ce8,1d1d9ccf24bb01a9,b2ac1d4aed2cc28c,c8a4ceb925c84fc5"},
	"matmul2d-34/k4/loose":      {1028533632, "504e2c3d61754ce8,1d1d9ccf24bb01a9,b2ac1d4aed2cc28c,c8a4ceb925c84fc5"},
	"matmul2d-50/k1/tight":      {10410417500, "053c13aad9521639"},
	"matmul2d-50/k1/loose":      {10410417500, "053c13aad9521639"},
	"matmul2d-50/k2/tight":      {10410417498, "d3ecaaef523c8b60,e4d93ad5a8b31f50"},
	"matmul2d-50/k2/loose":      {10410417498, "d3ecaaef523c8b60,e4d93ad5a8b31f50"},
	"matmul2d-50/k4/tight":      {10410417472, "9bb7449b140a9a20,c622c290684b83a2,73b45e42dff915d7,78cf78b3940b0421"},
	"matmul2d-50/k4/loose":      {10410417472, "9bb7449b140a9a20,c622c290684b83a2,73b45e42dff915d7,78cf78b3940b0421"},
	"matmul2d-100/k1/tight":     {666566670000, "903f55b26d3c56dd"},
	"matmul2d-100/k1/loose":     {666566670000, "903f55b26d3c56dd"},
	"matmul2d-100/k2/tight":     {666566669998, "37439c2f21a358f1,59ea5a3a970234f1"},
	"matmul2d-100/k2/loose":     {666566669998, "37439c2f21a358f1,59ea5a3a970234f1"},
	"matmul2d-100/k4/tight":     {666566669972, "c36312c853da7659,330ab837a3bf7b71,1daabc6e67f78f31,7a58ab25a20b1951"},
	"matmul2d-100/k4/loose":     {666566669972, "c36312c853da7659,330ab837a3bf7b71,1daabc6e67f78f31,7a58ab25a20b1951"},
	"matmul2d-rand-10/k1/tight": {656700, "17d0ce8aa1a504b5"},
	"matmul2d-rand-10/k1/loose": {656700, "1be911d5b3d7f565"},
	"matmul2d-rand-10/k2/tight": {656698, "41e20bef2e920a1b,2542d5bd9d7fa95b"},
	"matmul2d-rand-10/k2/loose": {656698, "884e0a4c01fd0000,91d3fc3a997900d0"},
	"matmul2d-rand-10/k4/tight": {656672, "9a368acf6214104a,705ae51b10ffe692,17b023f4eb66dfad,d316a45f29f97895"},
	"matmul2d-rand-10/k4/loose": {656672, "990ae1a7b0c362c1,6bc7531e91ab475c,121e9e65444e6859,4e8efaa569512794"},
	"matmul2d-rand-25/k1/tight": {162370000, "2d64a965675bf253"},
	"matmul2d-rand-25/k1/loose": {162370000, "cfad5e143593f83b"},
	"matmul2d-rand-25/k2/tight": {162369998, "fe331dbd200d929c,18eae41efcc95626"},
	"matmul2d-rand-25/k2/loose": {162369998, "44ceaa5e54b212a4,cb09cc931537747a"},
	"matmul2d-rand-25/k4/tight": {162369972, "4dc3ea0e6fafbf27,64fcbc1e608fe4cc,bc1ebfd586badbae,f25fb78985775943"},
	"matmul2d-rand-25/k4/loose": {162369972, "9b5b7174fee91add,bfa1b1aa62a212a8,742034307ffc347f,31b694b1928ff3d0"},
	"cholesky-5/k1/tight":       {27370, "efe5476066e913e6"},
	"cholesky-5/k1/loose":       {27370, "efe5476066e913e6"},
	"cholesky-5/k2/tight":       {27368, "f47aef2e29c4def5,5fc516009176c346"},
	"cholesky-5/k2/loose":       {27368, "f47aef2e29c4def5,5fc516009176c346"},
	"cholesky-5/k4/tight":       {27342, "f79ea4b21c1c5840,0bd7c7c36c193929,98902f5e9ad7afce,8e82c07a337344b4"},
	"cholesky-5/k4/loose":       {27342, "f79ea4b21c1c5840,0bd7c7c36c193929,98902f5e9ad7afce,8e82c07a337344b4"},
	"cholesky-10/k1/tight":      {7050340, "ceadc0a123f77f05"},
	"cholesky-10/k1/loose":      {7050340, "9dfaecff8984cc45"},
	"cholesky-10/k2/tight":      {7050338, "f87853faf84edf8e,93a16633c762daee"},
	"cholesky-10/k2/loose":      {7050338, "e0ef698051c442bf,ff3ca2db6c2fd2ef"},
	"cholesky-10/k4/tight":      {7050312, "c25c53089568c1c8,5fabd7259b01e2d0,d72ec16edbf898e4,1a54eaff0856873c"},
	"cholesky-10/k4/loose":      {7050312, "96cc455e4fd63740,05d167f9d1ee841b,142f76fe76c1d20f,49fbc86516b7c7d4"},
	"sparse2d-50/k1/tight":      {76048, "f54075ff36421f55"},
	"sparse2d-50/k1/loose":      {76048, "f54075ff36421f55"},
	"sparse2d-50/k2/tight":      {76046, "9cc4596d7da8b616,faf3ca2e9ce04c26"},
	"sparse2d-50/k2/loose":      {76046, "9cc4596d7da8b616,faf3ca2e9ce04c26"},
	"sparse2d-50/k4/tight":      {76020, "fadd5f8d7946d361,9d092c3dba5d0f9f,cc5d2386e70999aa,05f9c00eb7b43874"},
	"sparse2d-50/k4/loose":      {76020, "fadd5f8d7946d361,9d092c3dba5d0f9f,cc5d2386e70999aa,05f9c00eb7b43874"},
	"sparse2d-150/k1/tight":     {58549540, "77fcc7642501d15a"},
	"sparse2d-150/k1/loose":     {58549540, "2c3ef79209590fc6"},
	"sparse2d-150/k2/tight":     {58549538, "34f129e7bd266c26,b99494e46c4dd1ad"},
	"sparse2d-150/k2/loose":     {58549538, "795ceea963fb8f7a,cb508f3a7dde6ef5"},
	"sparse2d-150/k4/tight":     {58549512, "c0901878b05ce2c7,b84c013a052b15f5,8391bbfd0cccdac8,8235ec4648709f9d"},
	"sparse2d-150/k4/loose":     {58549512, "64cddb0a7e82d10d,9a0016cedf961ce4,98d71c63aee13983,4da0a213aaeac93d"},
	"matmul3d-4/k1/tight":       {170688, "ac23c02737f0b125"},
	"matmul3d-4/k1/loose":       {170688, "ac23c02737f0b125"},
	"matmul3d-4/k2/tight":       {170686, "88569da323193125,786b983f37dda325"},
	"matmul3d-4/k2/loose":       {170686, "88569da323193125,786b983f37dda325"},
	"matmul3d-4/k4/tight":       {170660, "8697988f952b44a5,c79bb01c6dce8fa5,31d5d24a98b0eda5,494b0330aea458a5"},
	"matmul3d-4/k4/loose":       {170660, "8697988f952b44a5,c79bb01c6dce8fa5,31d5d24a98b0eda5,494b0330aea458a5"},
	"matmul3d-8/k1/tight":       {89216512, "da4925b07bd39925"},
	"matmul3d-8/k1/loose":       {89216512, "da4925b07bd39925"},
	"matmul3d-8/k2/tight":       {89216510, "9e4dcd144264dc25,b2609b746e00e025"},
	"matmul3d-8/k2/loose":       {89216510, "9e4dcd144264dc25,b2609b746e00e025"},
	"matmul3d-8/k4/tight":       {89216484, "34cdd943c9c91d65,8aeb1b38840329e5,72fe18b2672208e5,e8eb999c46f82565"},
	"matmul3d-8/k4/loose":       {89216484, "34cdd943c9c91d65,8aeb1b38840329e5,72fe18b2672208e5,e8eb999c46f82565"},
	"random-300/k1/tight":       {17910100, "234242123eccb0a9"},
	"random-300/k1/loose":       {17910100, "5d3837f97edc41a9"},
	"random-300/k2/tight":       {17910098, "dce2af09d03456ec,ca8718bd58282c60"},
	"random-300/k2/loose":       {17910098, "dc6faac1bd46e176,a001e9a3f091267e"},
	"random-300/k4/tight":       {17910072, "785be87811a16523,359636be809b5e05,5ac7f16f91b21dda,95879a7dfd7d83e8"},
	"random-300/k4/loose":       {17910072, "1c50e804881b5477,fb32038d0ea5e4fd,f9a09047c182cfa0,1b09601ce7de16be"},
	"disjoint/k1/tight":         {18910, "b69bc0a2b502425a"},
	"disjoint/k1/loose":         {18910, "b69bc0a2b502425a"},
	"disjoint/k2/tight":         {18908, "2276b55758a2df1a,adb43e4daa96e7f5"},
	"disjoint/k2/loose":         {18908, "2276b55758a2df1a,adb43e4daa96e7f5"},
	"disjoint/k4/tight":         {18882, "bfc691d125665f93,9c6df6f39c6cac4d,0d9e7e1bd428df6d,f9eeb4908fdf3d6c"},
	"disjoint/k4/loose":         {18882, "bfc691d125665f93,9c6df6f39c6cac4d,0d9e7e1bd428df6d,f9eeb4908fdf3d6c"},
}

func TestGoldenMHFPCorpus(t *testing.T) {
	cases := mhfpCases()
	if len(cases) != len(mhfpGolden) {
		t.Fatalf("%d corpus cases, %d golden entries", len(cases), len(mhfpGolden))
	}
	for _, c := range cases {
		want, ok := mhfpGolden[c.name]
		if !ok {
			t.Fatalf("%s: no golden entry", c.name)
		}
		if got := runMHFPGolden(c); got != want {
			t.Errorf("%s: got {ops %d, queues %s}, want {ops %d, queues %s}",
				c.name, got.ops, got.queues, want.ops, want.queues)
		}
	}
}
