"""Seeded synthetic flow-record generator.

Produces CSVs in the bundled 49-column layout so the full pipeline can be
exercised, benchmarked, and tested without the multi-gigabyte capture corpus
the layout comes from. Normal traffic is a mixture of behavior clusters
(web, dns, ssh, smtp, ftp, bulk); attack families deviate on connection-count
features, packet sizes, handshake timing, or use services absent from normal
traffic. Identical (n, seed, attack_fraction) always yields identical rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ingest import default_schema

_SERVICE_PORTS = {
    "http": 80,
    "dns": 53,
    "ssh": 22,
    "smtp": 25,
    "ftp": 21,
    "irc": 6667,
    "pop3": 110,
}


@dataclass(frozen=True)
class _Family:
    category: str  # attack_cat text; "" for normal traffic
    weight: float
    proto: tuple[tuple[str, float], ...]
    service: tuple[tuple[str, float], ...]
    state: tuple[tuple[str, float], ...]
    tcprtt: tuple[float, float]  # mean, sd of |N|
    smean: tuple[float, float]
    dmean: tuple[float, float]
    dwin_hi: float  # probability of dwin=255
    ct_dst_sport: float  # Poisson rates for the connection-count features
    ct_src_dport: float
    ct_dst_src: float
    ct_dst: float
    spkts: float
    dpkts: float
    dur: tuple[float, float]  # lognormal mu, sigma


_NORMAL_FAMILIES = (
    _Family("", 0.38, (("tcp", 1.0),), (("http", 1.0),), (("FIN", 0.85), ("CON", 0.15)),
            (0.090, 0.025), (480, 80), (1100, 250), 0.97, 1.2, 1.2, 2.5, 3.0, 9, 11, (-1.2, 0.8)),
    _Family("", 0.22, (("udp", 1.0),), (("dns", 1.0),), (("CON", 0.9), ("INT", 0.1)),
            (0.0008, 0.0005), (73, 7), (140, 30), 0.02, 0.8, 0.8, 1.5, 3.0, 2, 2, (-4.0, 0.6)),
    _Family("", 0.10, (("tcp", 1.0),), (("ssh", 1.0),), (("FIN", 0.9), ("CON", 0.1)),
            (0.110, 0.030), (220, 45), (260, 60), 0.95, 1.0, 1.0, 2.0, 2.5, 14, 13, (0.5, 1.0)),
    _Family("", 0.08, (("tcp", 1.0),), (("smtp", 1.0),), (("FIN", 0.9), ("CON", 0.1)),
            (0.100, 0.030), (600, 120), (300, 80), 0.95, 1.0, 1.0, 2.0, 2.5, 10, 8, (-0.8, 0.7)),
    _Family("", 0.06, (("tcp", 1.0),), (("ftp", 1.0),), (("FIN", 0.85), ("CON", 0.15)),
            (0.095, 0.030), (180, 40), (400, 150), 0.95, 1.0, 1.0, 1.8, 2.2, 12, 14, (0.2, 0.9)),
    _Family("", 0.16, (("tcp", 1.0),), (("-", 1.0),), (("FIN", 0.7), ("CON", 0.3)),
            (0.150, 0.060), (900, 300), (1200, 400), 0.90, 1.5, 1.5, 4.0, 4.5, 20, 22, (1.0, 1.1)),
)

_ATTACK_FAMILIES = (
    _Family("DoS", 0.22, (("tcp", 1.0),), (("http", 1.0),), (("INT", 0.6), ("FIN", 0.4)),
            (0.004, 0.002), (70, 12), (30, 15), 0.03, 22.0, 4.0, 28.0, 30.0, 30, 1, (-3.0, 0.8)),
    _Family("Reconnaissance", 0.20, (("tcp", 1.0),), (("-", 1.0),), (("INT", 0.9), ("REQ", 0.1)),
            (0.001, 0.0008), (46, 6), (5, 4), 0.02, 14.0, 26.0, 10.0, 18.0, 2, 0.2, (-5.0, 0.7)),
    _Family("Exploits", 0.18, (("tcp", 1.0),), (("http", 0.5), ("smtp", 0.2), ("-", 0.3)),
            (("FIN", 0.6), ("CON", 0.4)), (0.070, 0.030), (820, 200), (150, 80), 0.50,
            7.0, 5.0, 9.0, 8.0, 15, 6, (-0.5, 0.9)),
    _Family("Generic", 0.16, (("udp", 1.0),), (("-", 0.6), ("dns", 0.4)), (("INT", 0.7), ("CON", 0.3)),
            (0.0008, 0.0005), (1300, 90), (12, 8), 0.02, 6.0, 10.0, 14.0, 12.0, 8, 0.5, (-4.0, 0.6)),
    _Family("Fuzzers", 0.14, (("tcp", 0.7), ("udp", 0.3)), (("http", 0.4), ("-", 0.4), ("ftp", 0.2)),
            (("FIN", 0.5), ("INT", 0.3), ("CON", 0.2)), (0.120, 0.080), (500, 350), (700, 500), 0.50,
            5.0, 5.0, 6.0, 6.0, 12, 10, (0.0, 1.2)),
    _Family("Backdoors", 0.04, (("tcp", 1.0),), (("irc", 1.0),), (("CON", 0.8), ("FIN", 0.2)),
            (0.090, 0.020), (300, 60), (280, 70), 0.90, 4.0, 4.0, 5.0, 5.0, 11, 9, (0.5, 0.8)),
    _Family("Shellcode", 0.03, (("tcp", 1.0),), (("-", 1.0),), (("FIN", 0.6), ("INT", 0.4)),
            (0.020, 0.010), (120, 25), (40, 20), 0.10, 6.0, 8.0, 7.0, 9.0, 4, 2, (-2.0, 0.8)),
    _Family("Analysis", 0.02, (("tcp", 1.0),), (("pop3", 1.0),), (("CON", 0.7), ("FIN", 0.3)),
            (0.080, 0.020), (260, 50), (180, 60), 0.80, 8.0, 8.0, 8.0, 10.0, 9, 7, (0.0, 0.8)),
    _Family("Worms", 0.01, (("tcp", 1.0),), (("http", 1.0),), (("FIN", 0.8), ("CON", 0.2)),
            (0.060, 0.020), (1050, 120), (60, 30), 0.60, 9.0, 6.0, 16.0, 14.0, 18, 3, (-1.0, 0.7)),
)


def _pick(rng: np.random.Generator, n: int, options: tuple[tuple[str, float], ...]) -> np.ndarray:
    values = [v for v, _ in options]
    probs = np.array([p for _, p in options])
    return rng.choice(values, size=n, p=probs / probs.sum())


def _pos_normal(rng, n, mean, sd, low=0.0):
    return np.maximum(np.abs(rng.normal(mean, sd, n)), low)


def _family_columns(rng: np.random.Generator, n: int, fam: _Family, ip_pool, dst_pool) -> dict:
    proto = _pick(rng, n, fam.proto)
    service = _pick(rng, n, fam.service)
    state = _pick(rng, n, fam.state)
    is_tcp = proto == "tcp"

    tcprtt = np.where(is_tcp, _pos_normal(rng, n, *fam.tcprtt, low=1e-5), 0.0)
    synack = tcprtt * rng.uniform(0.35, 0.45, n)
    ackdat = tcprtt - synack
    smean = np.maximum(rng.normal(*fam.smean, n), 28).astype(np.int64)
    dmean = np.maximum(rng.normal(*fam.dmean, n), 0).astype(np.int64)
    dwin = np.where(rng.random(n) < fam.dwin_hi, 255, 0)
    swin = np.where(is_tcp & (rng.random(n) < 0.96), 255, 0)
    spkts = 1 + rng.poisson(fam.spkts, n)
    dpkts = np.maximum(rng.poisson(fam.dpkts, n), 0)
    dur = np.maximum(rng.lognormal(*fam.dur, n), 1e-4)
    sbytes = smean * spkts
    dbytes = dmean * dpkts
    sload = sbytes * 8.0 / dur
    dload = dbytes * 8.0 / dur

    dsport = np.array(
        [_SERVICE_PORTS.get(s, 0) or rng.integers(1, 65536) for s in service], dtype=np.int64
    )

    cols = {
        "srcip": rng.choice(ip_pool, n),
        "sport": rng.integers(1024, 65536, n),
        "dstip": rng.choice(dst_pool, n),
        "dsport": dsport,
        "proto": proto,
        "state": state,
        "dur": dur,
        "sbytes": sbytes,
        "dbytes": dbytes,
        "sttl": rng.choice([62, 63, 254, 255], n),
        "dttl": rng.choice([60, 62, 252, 254], n),
        "sloss": rng.poisson(0.4, n),
        "dloss": rng.poisson(0.3, n),
        "service": service,
        "sload": sload,
        "dload": dload,
        "spkts": spkts,
        "dpkts": dpkts,
        "swin": swin,
        "dwin": dwin,
        "stcpb": np.where(is_tcp, rng.integers(1, 2**31, n), 0),
        "dtcpb": np.where(is_tcp, rng.integers(1, 2**31, n), 0),
        "smean": smean,
        "dmean": dmean,
        "trans_depth": np.where(service == "http", rng.poisson(0.6, n), 0),
        "res_bdy_len": np.where(service == "http", rng.poisson(400, n), 0),
        "sjit": rng.lognormal(2.0, 1.0, n),
        "djit": rng.lognormal(1.5, 1.0, n),
        "stime": np.zeros(n, dtype=np.int64),  # assigned after shuffling
        "ltime": np.zeros(n, dtype=np.int64),
        "sintpkt": dur * 1000.0 / np.maximum(spkts, 1),
        "dintpkt": dur * 1000.0 / np.maximum(dpkts, 1),
        "tcprtt": tcprtt,
        "synack": synack,
        "ackdat": ackdat,
        "is_sm_ips_ports": (rng.random(n) < 0.001).astype(np.int64),
        "ct_state_ttl": rng.poisson(1.0, n),
        "ct_flw_http_mthd": np.where(service == "http", rng.poisson(1.0, n), 0),
        "is_ftp_login": np.where(service == "ftp", (rng.random(n) < 0.7).astype(np.int64), 0),
        "ct_ftp_cmd": np.where(service == "ftp", rng.poisson(1.2, n), 0),
        "ct_srv_src": rng.poisson(fam.ct_dst_src + 2.0, n),
        "ct_srv_dst": rng.poisson(fam.ct_dst + 2.0, n),
        "ct_dst_ltm": rng.poisson(fam.ct_dst, n),
        "ct_src_ltm": rng.poisson(fam.ct_dst * 0.8 + 0.5, n),
        "ct_src_dport_ltm": rng.poisson(fam.ct_src_dport, n),
        "ct_dst_sport_ltm": rng.poisson(fam.ct_dst_sport, n),
        "ct_dst_src_ltm": rng.poisson(fam.ct_dst_src, n),
        "attack_cat": np.full(n, fam.category, dtype=object),
        "label": np.full(n, 0 if fam.category == "" else 1, dtype=np.int64),
    }
    return cols


_INT_COLUMNS = {
    "sport", "dsport", "sbytes", "dbytes", "sttl", "dttl", "sloss", "dloss", "spkts",
    "dpkts", "swin", "dwin", "stcpb", "dtcpb", "smean", "dmean", "trans_depth",
    "res_bdy_len", "stime", "ltime", "is_sm_ips_ports", "ct_state_ttl",
    "ct_flw_http_mthd", "is_ftp_login", "ct_ftp_cmd", "ct_srv_src", "ct_srv_dst",
    "ct_dst_ltm", "ct_src_ltm", "ct_src_dport_ltm", "ct_dst_sport_ltm",
    "ct_dst_src_ltm", "label",
}


def _format_column(name: str, arr: np.ndarray) -> list[str]:
    if name in _INT_COLUMNS:
        return list(map(str, arr.astype(np.int64).tolist()))
    if arr.dtype == object or arr.dtype.kind in "US":
        return list(map(str, arr.tolist()))
    return list(map("{:.6f}".format, arr.tolist()))


def _generate_columns(n: int, seed: int, attack_fraction: float) -> dict[str, np.ndarray]:
    """n flows as one array per schema column, shuffled and timestamped."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= attack_fraction <= 1.0:
        raise ValueError("attack_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    schema = default_schema()

    n_attack = round(n * attack_fraction)
    n_normal = n - n_attack
    src_pool = np.array(
        [f"59.166.0.{i}" for i in range(50)] + [f"175.45.176.{i}" for i in range(10)], dtype=object
    )
    dst_pool = np.array([f"149.171.126.{i}" for i in range(20)], dtype=object)

    def _counts(total: int, families) -> list[int]:
        weights = np.array([f.weight for f in families])
        counts = rng.multinomial(total, weights / weights.sum())
        return counts.tolist()

    blocks: list[dict] = []
    for fam, count in zip(_NORMAL_FAMILIES, _counts(n_normal, _NORMAL_FAMILIES)):
        if count:
            blocks.append(_family_columns(rng, count, fam, src_pool, dst_pool))
    for fam, count in zip(_ATTACK_FAMILIES, _counts(n_attack, _ATTACK_FAMILIES)):
        if count:
            blocks.append(_family_columns(rng, count, fam, src_pool, dst_pool))

    names = schema.names
    merged = {name: np.concatenate([b[name] for b in blocks]) for name in names}
    order = rng.permutation(n)
    merged = {name: arr[order] for name, arr in merged.items()}

    stime = 1424219000 + np.cumsum(rng.exponential(0.08, n)).astype(np.int64)
    merged["stime"] = stime
    merged["ltime"] = stime + np.ceil(merged["dur"]).astype(np.int64)
    return merged


#: Rows formatted at a time: only one slice's field texts are alive at once.
_SLICE_ROWS = 8192


def _write_csv(stream, columns: dict[str, np.ndarray]) -> None:
    """Write a header and the columns as CSV lines, formatting one column of
    one slice of rows at a time; no field needs quoting."""
    names = default_schema().names
    stream.write(",".join(names) + "\n")
    for start in range(0, len(columns[names[0]]), _SLICE_ROWS):
        formatted = [_format_column(name, columns[name][start : start + _SLICE_ROWS]) for name in names]
        stream.writelines(f"{','.join(row)}\n" for row in zip(*formatted))


def write_synthetic_csv(path, n: int, seed: int, attack_fraction: float = 0.35) -> dict:
    """Write a synthetic flow CSV; returns a small summary dict."""
    columns = _generate_columns(n, seed, attack_fraction)
    with Path(path).open("w", encoding="utf-8", newline="") as stream:
        _write_csv(stream, columns)
    n_attack = int(columns["label"].sum())
    return {"rows": n, "normal": n - n_attack, "attack": n_attack, "seed": seed}
