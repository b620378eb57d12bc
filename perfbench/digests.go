package main

// recordedDigests are the makespan digests (see cycle.digest) of each
// workload at the default seed. A run at that seed whose outputs hash
// differently fails its correctness check: the program's schedules or
// simulations changed.
var recordedDigests = map[string]string{
	"bnp-sweep":        "1d6823ad6150bc4f",
	"unc-apn-sweep":    "c1cd659cff87f658",
	"million-pipeline": "ef37dd8d623c3c82",
	"mc-replay":        "1d59a972104e5fb0",
}
