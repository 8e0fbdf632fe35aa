"""Golden sha256 digests of CLI output for fixed seeds.

Each case runs one subcommand on SPEC-C, on a dusty non-conservative model
(where every command but simulate, partition and validate exits 3 before
writing anything) or on a conservative three-type model with several atoms
per type, in CSV and in JSON, and hashes its exit code, its output file and
what it printed.  limits, report and validate always write JSON and take no
--format, so they have one case per model.  Most digests were taken before
the heap and tagged engines and the row writer moved to flat columns, those
of limits, report and validate before the CLI took exit codes from the error
classes, and those of simulate and martingale on spec_c, dusty and
three_type when the two commands moved from the heap engine to the wave
driver, ``mass_ensemble``; they pin the random streams and the output
bytes.  A change that alters either on purpose updates them and says so in
CHANGES.md.  No command reads the library's heap recorder,
``simulate_mass_fragmentation``, so its paths have a digest of their own.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from multifrag import fragmentation_spec, simulate_mass_fragmentation
from multifrag.cli import main, parse_spec_file
from multifrag.streams import replica_stream

SPEC_C_DOC = {"types": 2, "erosion": [0, 0], "conservative": True,
              "dislocation": {
                  "1": [{"rate": 1.0, "fragments": [["3/5", 1], ["2/5", 2]]}],
                  "2": [{"rate": 1.0,
                         "fragments": [["1/2", 2], ["3/10", 1], ["1/5", 1]]}]}}
# type 1 sheds 20% of its mass as dust; type 2 has a dusty and a proper atom
DUSTY_DOC = {"types": 2, "dislocation": {
    "1": [{"rate": 1.0, "fragments": [[0.5, 1], [0.3, 2]]}],
    "2": [{"rate": 0.5, "fragments": [[0.6, 1], [0.4, 2]]},
          {"rate": 1.0, "fragments": [[0.4, 2], [0.2, 1]]}]}}
# conservative, with several atoms per type, for the commands that need it
THREE_TYPE_DOC = {"types": 3, "dislocation": {
    "1": [{"rate": 0.7, "fragments": [[0.5, 2], [0.5, 3]]},
          {"rate": 0.4, "fragments": [[0.7, 1], [0.2, 3], [0.1, 2]]}],
    "2": [{"rate": 1.2, "fragments": [[0.25, 1], [0.75, 3]]}],
    "3": [{"rate": 0.3, "fragments": [[0.9, 3], [0.1, 1]]},
          {"rate": 0.6, "fragments": [[0.4, 2], [0.3, 2], [0.3, 1]]},
          {"rate": 0.2, "fragments": [[0.6, 1], [0.4, 3]]}]}}
MODELS = {"spec_c": SPEC_C_DOC, "dusty": DUSTY_DOC,
          "three_type": THREE_TYPE_DOC}

COMMANDS = {
    "simulate": ["--seed", "11", "--replicas", "2", "--times", "0,1.5,3",
                 "--mass-floor", "1e-3"],
    "martingale": ["--seed", "12", "--replicas", "2", "--times", "1,3",
                   "--theta", "0.3,0.6", "--mass-floor", "1e-3"],
    "tagged": ["--seed", "13", "--replicas", "3", "--t", "4"],
    "partition": ["--seed", "14", "--replicas", "2", "--n", "12",
                  "--times", "0.5,2"],
    "ldcount": ["--seed", "15", "--replicas", "20", "--t-grid", "2,3"],
    "spectral": ["--theta", "0,0.5,1"],
    "limits": ["--seed", "16", "--replicas", "20", "--t", "3"],
    "report": ["--seed", "17", "--replicas", "20", "--t", "2"],
    "validate": [],
}
JSON_ONLY = {"limits", "report", "validate"}

DIGESTS = {
    "simulate-spec_c-csv": "054a1479d3afdb665dc220c753f82a45e85acb5cbdba1855f25a4eb4062c83ec",
    "simulate-spec_c-json": "9474e289519f1a50c0bf41ce02c6471a5e261855a8522bf831f907b4fcbd2f78",
    "martingale-spec_c-csv": "9f7b9ac1decf52b0acb6cc1d32bddef67f63b58ccfed7b87d3dd9153596b4831",
    "martingale-spec_c-json": "a1ea1d207976c432f791f207ef94901e284db8eb9109c909cdfb989341e1b7af",
    "tagged-spec_c-csv": "850dedb971da9aebab9d9ff98fe240a2620ca55080ee6c4b5d51649fda1006a4",
    "tagged-spec_c-json": "c0ccb6e46d452515493939882db0621d840f010046d46f28ea3a3285041aa940",
    "partition-spec_c-csv": "d8ce9011bdd6d571ce44461f3c8f9d585634afb134b8ee160a6a6fc8256864eb",
    "partition-spec_c-json": "e11f8eef9e41620c7f9b78abda922a29347fc99b08f65bb7cca2469438e8b236",
    "ldcount-spec_c-csv": "00166408c2a6859452617b616f75fc684b4453b883eb113e747cf514d0469656",
    "ldcount-spec_c-json": "59ea171e4c761792ce3db68ab87713b9ed6f1bbb6a65a27a7db20c5c96b4bda9",
    "spectral-spec_c-csv": "5877eaceaaef4e0efb55622d7239166ca335ff3d4e50eb7257d62d57375136bb",
    "spectral-spec_c-json": "64e989f5646e7ab60df9a81eb4f88644eb942b9a08b4f1a2ca5b19a12f244a2c",
    "limits-spec_c-json": "3f8f00661c61950655a52dfb072c9aaf7bcc8996583ebd03d10a2c02c5f88d95",
    "report-spec_c-json": "a9b5d2ff01bf14f38d6ca41719285335142e72a968ce1ba62aa3f27c73ed1563",
    "validate-spec_c-json": "94f597a4c7f649a7da9380553ff0410c7337d51b23c2024dba32ce1119df65db",
    "simulate-dusty-csv": "6438bdd86025292c00d5d49489dfa1b56b015c7ddc2535d1f77fe8e4b78f8853",
    "simulate-dusty-json": "9aa7db568d14d8466efa49895bd1946269bcf5ce7749598db573b22531faaf04",
    "martingale-dusty-csv": "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "martingale-dusty-json": "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "tagged-dusty-csv": "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "tagged-dusty-json": "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "partition-dusty-csv": "0ad67e21654733d564021dd8659f64b22193e603d505979ed1db885fa15b4b93",
    "partition-dusty-json": "9291e01bfef22f9178bb60f5e079d96593718318cd456bdfc210cce54d04fa69",
    "ldcount-dusty-csv": "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "ldcount-dusty-json": "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "spectral-dusty-csv": "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "spectral-dusty-json": "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "limits-dusty-json": "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "report-dusty-json": "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "validate-dusty-json": "7505a13c6cc2b51aabbbc84bc8649232bf7d9127e8ab82a9b4e054e33b437a58",
    "simulate-three_type-csv": "f8bfdfb09cd85b7d2bec4ec894e53a448a65d14a9a73b71152f5285e69d6bf29",
    "simulate-three_type-json": "b78a9d521dd2e8e057356e662df069bbd7f6f40aa6c06bbfe669941e028a6c6b",
    "martingale-three_type-csv": "743abe9ec5146e5fac172fd5584ddb4fb3e23d046904f66c67e28dffdc8e7040",
    "martingale-three_type-json": "ec56ac3f8cc162370876aaa4e6dec41cc00cdfdf9c51432a54c491b59d614297",
    "tagged-three_type-csv": "f926cbb84f93e10b4f90092f3f0a9dce435d2ed49196050781c500a5be0eaf82",
    "tagged-three_type-json": "b7c675443a373f438f7c52eecdafbc5169e500bfd8a299d6a0d79c0790717590",
    "partition-three_type-csv": "bf247124a0e74c9d9cc4a99a95011b7f72ea0ae2019d35c87cc0e24cb3be1c15",
    "partition-three_type-json": "b587fb8eb50ce36b1293d65de5c6800ad80c7f51cb80083db72fdffe392daa0b",
    "ldcount-three_type-csv": "3030d6d2e08ddb96583bf860bc37900804788e6afa5a21e3bef4765ce13bfbd0",
    "ldcount-three_type-json": "c73bc5dfdd5bcf603a27fb79e37df04b4c5c54276b816084b2973f4d66a627b1",
    "spectral-three_type-csv": "35e7a2f375e524bb0819e0ed7d02644be019b87c8b6606449ee9328897a42aa7",
    "spectral-three_type-json": "b24c4457095fd5f7677e4c4d2e21417131c4cf8b4b03cef34ac83804992f88ed",
    "limits-three_type-json": "30c2fd0cd31f5b6715a175832a3c6418077fe950333b4995a806984c8858efd4",
    "report-three_type-json": "c22e7016f3e45dd77e1f4f0fa2da1dea2593c677bd9ba90048a8f75fda7d6567",
    "validate-three_type-json": "0a2ae1d77cbc06bb7c755e4fb6ca674ac6ec3166f81b41a6c3c38e8157133542",
}


def _cases():
    for model in MODELS:
        for command in COMMANDS:
            for fmt in ("json",) if command in JSON_ONLY else ("csv", "json"):
                yield f"{command}-{model}-{fmt}", (command, model, fmt)


CASES = dict(_cases())


def digest(case, tmp_path, commands=COMMANDS):
    """sha256 over the exit code, the --out file and stdout of one case,
    run with the options ``commands`` gives its command."""
    command, model, fmt = case
    spec = tmp_path / f"{model}.json"
    spec.write_text(json.dumps(MODELS[model]))
    out = tmp_path / f"{command}-{model}.{fmt}"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--spec", str(spec), "--out", str(out)]
                    + ([] if command in JSON_ONLY else ["--format", fmt])
                    + commands[command])
    h = hashlib.sha256(f"{code}\n".encode())
    h.update(out.read_bytes() if out.exists() else b"")
    h.update(printed.getvalue().encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", list(CASES))
def test_output_matches_golden_digest(case, tmp_path):
    assert digest(CASES[case], tmp_path) == DIGESTS[case]


# the ldcount counts alone, so a shift in theta_bar's last digits can be
# told apart from a change in the simulated counts
LDCOUNT_COUNTS_DIGEST = (
    "f3bb955d750cdd630c82348f56a8281f82d88caae478ebfad38b2fc79c1aade9")


def test_ldcount_counts_match_golden_digest(tmp_path):
    spec = tmp_path / "three_type.json"
    spec.write_text(json.dumps(THREE_TYPE_DOC))
    out = tmp_path / "ldcount.csv"
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(["ldcount", "--spec", str(spec), "--out", str(out)]
                    + COMMANDS["ldcount"])
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    cols = [header.index("mean_count"), header.index("se")]
    counts = "\n".join(",".join(line.split(",")[c] for c in cols)
                       for line in lines)
    assert hashlib.sha256(counts.encode()).hexdigest() == LDCOUNT_COUNTS_DIGEST


# partition at the benchmark's shape (perfbench's partition workload), where
# the paintbox cuts over a thousand blocks, most of a few labels; the cases
# above use n = 12
PARTITION_N1024_DIGEST = (
    "4b281cb41e3079be1635bc177575e55fb0929d897a97b9867961878f9c732285")


def test_partition_n1024_matches_golden_digest(tmp_path):
    spec = tmp_path / "spec_c.json"
    spec.write_text(json.dumps(SPEC_C_DOC))
    out = tmp_path / "partition.csv"
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(["partition", "--spec", str(spec), "--out", str(out),
                     "--format", "csv", "--seed", "18", "--replicas", "1",
                     "--n", "1024", "--t", "20", "--times", "5,10,15,20"])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PARTITION_N1024_DIGEST


# limits and ldcount at the shapes of perfbench's ensemble workload, where
# each wave draws for thousands to tens of thousands of lanes, and simulate
# and tagged at the shapes of its population workload, tables of tens of
# thousands of rows; the cases above use 20 replicas or a few dozen rows.
# The limits and ldcount digests were taken before the draw became a
# bisection over the tables laid end to end, the simulate and tagged ones
# before CSV and JSON tables were written by one row writer.
WORKLOAD_COMMANDS = {
    "limits": ["--seed", "19", "--replicas", "50000", "--t", "50"],
    "ldcount": ["--seed", "20", "--replicas", "600", "--t-grid",
                "8,10,12,14,16", "--replica-chunk", "50"],
    "simulate": ["--seed", "21", "--replicas", "1", "--times",
                 "4,8,12,16,20", "--mass-floor", "1e-4"],
    "tagged": ["--seed", "22", "--replicas", "200", "--t", "50"],
}
WORKLOAD_DIGESTS = {
    "limits-spec_c-json":
        "f6b7e288dbaa09b0fd6d234b0f39f989181c86d07373847329b1b584d49e2a9e",
    "ldcount-spec_c-csv":
        "8f80068a6146f6d1a08720c449758381778f0aac61ecea0fad2bbd1ec859bbbc",
    "limits-three_type-json":
        "b54284f0d1355e80ff6e77dd8c7ce4f2d9d736dacfa47edfe3de60dab592c095",
    "ldcount-three_type-csv":
        "bca09a060557bfb12a914b5252d8bf16f9baad1f993abe7d8fbeba86b354b851",
    "simulate-spec_c-csv":
        "4564901864f2b01d0abecd01b085fd02fd6bce7a39ef18050407c61842aaf569",
    "simulate-spec_c-json":
        "5d4cca9e64f85e0b89cf8561a305b1613844d1390b8c9fcdefc3383f5030ecad",
    "tagged-spec_c-csv":
        "7319c417fec8edcf52beb8ded55e8a22268696635dac4fd3b0711781a0012fb6",
    "tagged-spec_c-json":
        "fab58412437d6b938a35240746295eab314ce9fcabc3c923b54ab252e3ea006d",
}


@pytest.mark.parametrize("case", list(WORKLOAD_DIGESTS))
def test_workload_scale_output_matches_golden_digest(case, tmp_path):
    assert (digest(CASES[case], tmp_path, WORKLOAD_COMMANDS)
            == WORKLOAD_DIGESTS[case])


# heap paths on three models: SPEC-C with a floor, the dusty model, and
# SPEC-B with a common erosion rate; taken before the path became one set of
# numpy columns
HEAP_PATH_DIGEST = (
    "f14db115a75c75da598f6af9dec3227f8ca698cc87de7df37ef015f7dad50fed")


def _heap_paths(tmp_path):
    dusty = tmp_path / "dusty.json"
    dusty.write_text(json.dumps(DUSTY_DOC))
    spec_c = fragmentation_spec(2, {1: [(1.0, [(0.6, 1), (0.4, 2)])],
                                    2: [(1.0, [(0.5, 2), (0.3, 1), (0.2, 1)])]})
    eroding_b = fragmentation_spec(2, {1: [(1.0, [(0.5, 2), (0.5, 2)])],
                                       2: [(1.0, [(0.5, 1), (0.5, 1)])]},
                                   erosion=[0.7, 0.7])
    for spec, t_max, mass_floor in ((spec_c, 8.0, 1e-4),
                                    (parse_spec_file(str(dusty)), 4.0, 1e-9),
                                    (eroding_b, 2.0, 1e-9)):
        for seed in range(30, 33):
            yield t_max, simulate_mass_fragmentation(
                spec, t_max, replica_stream(seed, 0), mass_floor=mass_floor)


def test_heap_paths_match_golden_digest(tmp_path):
    h = hashlib.sha256()
    for t_max, path in _heap_paths(tmp_path):
        grid = [t_max * q / 8 for q in range(9)]
        h.update(repr((path.n_fragments, path.events)).encode())
        h.update(repr([path.fragment(i) for i in range(path.n_fragments)])
                 .encode())
        h.update(repr([path.dust_at(t) for t in
                       [event.time for event in path.events] + grid]).encode())
        for t in grid:
            snap = path.snapshot(t)
            for column in (snap.masses, snap.types, snap.frozen):
                h.update(column.dtype.str.encode() + column.tobytes())
            h.update(repr(snap.dust).encode())
    assert h.hexdigest() == HEAP_PATH_DIGEST


def _k8_doc(seed):
    """A conservative k = 8 model drawn from ``seed``, built as the spectral
    benchmark workload builds its random model: a fixed template of total
    rates 0.5, 1.0, ..., 4.0 and two three-child atoms per type, a cycle
    through all types, types relabelled by a seeded permutation and child
    masses jittered by up to 10%."""
    k = 8
    template = np.random.default_rng(8)
    rng = np.random.default_rng([seed, k])
    label = rng.permutation(k) + 1
    dislocation = {}
    for i in range(1, k + 1):
        share = template.uniform(0.3, 0.7)
        atoms = []
        for a, part in enumerate((share, 1.0 - share)):
            raw = (template.random(3) + 0.2) * (1.0 + 0.1 * rng.uniform(-1, 1, 3))
            masses = raw / raw.sum()
            types = template.integers(1, k + 1, 3)
            if a == 0:
                types[0] = i % k + 1
            atoms.append({"rate": float(0.5 * i * part),
                          "fragments": [[float(m), int(label[t - 1])]
                                        for m, t in zip(masses, types)]})
        dislocation[str(int(label[i - 1]))] = atoms
    return {"types": k, "erosion": [0.0] * k, "conservative": True,
            "dislocation": dict(sorted(dislocation.items()))}


# spectral on a k = 8 model at the benchmark's grid, and on SPEC-C over a
# grid that starts below 0 and crosses theta = 1; the cases above hold
# k <= 3 and three thetas in [0, 1].  Taken before a grid's Perron data
# came from one stacked eigensolve.
SPECTRAL_GRID_CASES = {
    "random_k8": (_k8_doc(1), "0:2:0.25"),
    "spec_c-wide": (SPEC_C_DOC, "-0.5:3:0.125"),
}
SPECTRAL_GRID_DIGESTS = {
    "random_k8-csv":
        "9ec29eef61d7ffeb7beb9f2fe8c8ba65c0c6e115bfe7071bf890395d27f5d36b",
    "random_k8-json":
        "699873f74707dc8c838129f3930112556b85d75dd31f999e382a50547fa6028e",
    "spec_c-wide-csv":
        "5b7f85773c2b3cfe7a2a1984f10d3609c1a3893a32c08a3e5c1616849d762477",
    "spec_c-wide-json":
        "ecad421bbffc8e4bfbce06a8e7ed9db76a1296ed27b2ba60230f0c2cd509c5e4",
}


@pytest.mark.parametrize("case", list(SPECTRAL_GRID_DIGESTS))
def test_spectral_grid_matches_golden_digest(case, tmp_path):
    model, fmt = case.rsplit("-", 1)
    doc, grid = SPECTRAL_GRID_CASES[model]
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / f"spectral.{fmt}"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["spectral", "--spec", str(spec), "--out", str(out),
                     "--format", fmt, f"--theta-grid={grid}"])
    h = hashlib.sha256(f"{code}\n".encode())
    h.update(out.read_bytes() if out.exists() else b"")
    h.update(printed.getvalue().encode())
    assert h.hexdigest() == SPECTRAL_GRID_DIGESTS[case]
