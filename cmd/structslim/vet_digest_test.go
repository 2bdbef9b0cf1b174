package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/workloads"
)

// vetDigests pins the static side of `structslim vet` across commits:
// stream predictions, reuse predictions, sharing claims, legality verdict
// tables and lint findings, one SHA-256 per registered workload of
// `vet -workload <w> -static-only -sharing -legality -reuse`. The root
// package's golden digests see legality only as the summary attached to
// a profiled report. A deliberate output change replaces the digests with
// the ones the failure messages print.
var vetDigests = map[string]string{
	"art":            "a0037dcbdd37dd2aac7bbfa13849f0fdfce9541f8616a62f635aa96f259e4a3d",
	"astar":          "48763cbdbbd27653a18b4c8b94bae6c0c779685759fbe72039d928c731203d80",
	"backprop":       "9002307ce9521c83555f1186679e595c463269716edf8a42fa772c45af7ab17a",
	"bfs":            "c2781a48fe568e2711bf81613adaf7f104439c39fdddf7b495f3c05bb1bf6c4d",
	"btree":          "09242753ec6d915c66f76cabd42ae5b937f9630d2242d158d404f3cf6fff157a",
	"bzip2":          "d97ebd36083af39f341e2fbc1cf329569568b9459a3c2b234c379f0a8fb0d94c",
	"cfd":            "38e037285f12e757e79d11b60988f3fad2259e6d99f82e880e439df564c2eb86",
	"clomp":          "c290e1f834e329d9805d48a3b9cfa01d6c1296d5ff6897130ba3bf0ddf4e355d",
	"escape":         "0d26bb0c35097f0024ae4cfb33171d26d862d523449270df676805cc08657915",
	"falseshare":     "5a85c2cbdbdbd209ac330d8197cbffe52b772fdd3c3231293aa367639ea7d6f2",
	"gcc":            "c8c3ab0152cb4460b4b405b38d619d5e8d7f03cc47c8a3526ade16fcc9897c94",
	"gobmk":          "945274fe781587db892ed33bab2d804081a6c97e3752758c6a3cebb101962ff3",
	"h264ref":        "033897415ac7e9fbbbefc6ef9cfe12cd1f8451c678556278579274faefea078b",
	"health":         "da8b9176fecf5ecb7974b21721b0f4ae1a318648b87412afd08d84021daa054e",
	"heartwall":      "ff33e837a7400e9325620d9aa24070f288b83565113b303d2c7963bee9b46047",
	"hmmer":          "22eb6f6913e449dd7fd4aa5bd463b81a8a337e45893fe24a651ad861266fb972",
	"hotspot":        "7956c7a8692a267b56607228104bf4952fa0797159187772e71bca31b6365e30",
	"kmeans":         "ba79fa11bb4b0d972e66be8369a6182a6a51faf113d50dc945f5c333e617a509",
	"lavamd":         "9cda6945b2a426e8301b775aa4bcb7463a193cc5ed86b69e4d919e253b72a260",
	"lbm":            "4e43adcfd9738973a90d096019065a0bd9931be9d0b5c7919f730d065120504e",
	"libquantum":     "d514bd94f8e228beabd28bb1b4617896799485604a19ad4959cee462e6c81476",
	"lud":            "274b283b5db10191efe7b4fe130159cc5a849f9abc01055f9e2c876e0d831e85",
	"mcf":            "f9248399b853acaf1d420cea901278a3d9aaef1c53ddde2340ca4b6f5625d759",
	"milc":           "cdf119732a3affddcb862f7ab741acce1cdb5ce909520b79c2c2d0391a717766",
	"mislaid":        "cf562de12fbeaea56781ff76a44a81402bdea9d9e20d3a5e10cd5b357a7ddb6f",
	"mser":           "9244911fc97c5f0e6bb4480810d7d0ca40da0b3d827c09065ce4a868c90c3cc5",
	"namd":           "e34c09fe3d4971d9dd457dc64f93c29930deb1e3e24751824e42c0889a067a65",
	"nn":             "3cd91222201946431d669e9cb50549ad183f7fff421e56a8965b949768a648cd",
	"nw":             "db4c6eea5cb2936a500a6baf134465263018217e3228efb4b529a4574ee13916",
	"particlefilter": "3e01bd996546b50d5ef684bd9b55879760492a0ac138e5108a09c5c39bed3748",
	"pathfinder":     "61aa274b8f6cdffa0bc2dbf7f00b599b3bc54c2c1909e32c19540bd1df652b68",
	"perlbench":      "ad87152cc7459ca818a5aa27d9f3dd94247322643cc39e8e486ead0235d17718",
	"quickstart":     "81d2c17f26f5fbd7f7c60cca7d180c18ecdac2fb6249b4ad5af86af7ac29877f",
	"sjeng":          "1ea8fc45319dca19f676ef86d8e1a93fb504232ff99437434a2316b225834997",
	"soplex":         "819a6ce2216bb525fbc4770f2ad81504a160f5670b5e2eeb28401677873b99a4",
	"sphinx3":        "27c976c36a96585b3ac52d0be0c67f85499becb753d968aba3b5c771f3eff9b3",
	"srad":           "bcbf458aeb68e712819901ed606bcac0bff20b6377e26c90991e2e33afc189fe",
	"streamcluster":  "1022cdeec570725f53b45b529efadf92bb6e9b9cf08944c4b5cd23aa85fee5e4",
	"tsp":            "d0dde8e4d9bf85c587ea1f3554a207a7ee3bb5be81a1f5180ecdc469620e9a36",
}

func TestVetDigests(t *testing.T) {
	for _, name := range workloads.Names() {
		var out bytes.Buffer
		if err := runVet([]string{"-workload", name, "-static-only", "-sharing", "-legality", "-reuse"}, &out); err != nil {
			t.Fatalf("vet %s: %v", name, err)
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != vetDigests[name] {
			t.Errorf("%s: vet digest changed\n\t%q: %q,", name, name, got)
		}
	}
	if len(vetDigests) != len(workloads.Names()) {
		t.Errorf("%d vet digests recorded for %d registered workloads", len(vetDigests), len(workloads.Names()))
	}
}
