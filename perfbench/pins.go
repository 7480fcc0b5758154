package main

// pinnedStats is the statistics digest of one full regeneration for each
// simulation seed paper-sim uses; pinnedFleet is the fingerprint of the
// paper-sim fleet after RunWild for each of them. A change that alters
// any simulated statistic must update these; a change that only makes
// the simulator faster must leave them identical.
var pinnedStats = map[int64]uint64{
	1:  0x47ae55e37aac43cd,
	2:  0x1dc61ff671894fd4,
	3:  0x8b3290fc818b2995,
	4:  0xb790d2a121c84304,
	5:  0xc31775ce6ea600f2,
	6:  0xa3ae9ace2e10f23c,
	7:  0x0dc03f13faeebbd1,
	8:  0x7353cf43acbf748c,
	9:  0x145ad1a9a7d7d31c,
	10: 0x9d0d19758a7f62f9,
	11: 0x3e1fedb54cc9398a,
	12: 0x118208e17a462d36,
	13: 0x5e479a3db7f9971d,
	14: 0x91599924145619b0,
	15: 0x694cc8651cf190a8,
	16: 0xe65c47eaa9a2ba91,
}

var pinnedFleet = map[int64]uint64{
	1:  0x86a8011359d4ff8a,
	2:  0x1404f40c47c41cdd,
	3:  0x429a60419853a8ed,
	4:  0x803f54c31e1ae5d3,
	5:  0x75df05a89fbc6b07,
	6:  0xe500b2e50f8dbfaa,
	7:  0xd0e6708966044b2b,
	8:  0x790a534f53c518d6,
	9:  0x0876c150ce3a5bcf,
	10: 0x6f786dd3d439f4a6,
	11: 0xa11fe0b3aae417d4,
	12: 0x49803008a25ea4c3,
	13: 0x2cabf614bbb826c7,
	14: 0x29ab529f0882e9cb,
	15: 0x22355af36371f980,
	16: 0xf47b15343955ae98,
}
