"""Seeded synthetic flow-record generator.

Produces CSVs in the bundled 49-column layout so the full pipeline can be
exercised, benchmarked, and tested without the multi-gigabyte capture corpus
the layout comes from. Normal traffic is a mixture of behavior clusters
(web, dns, ssh, smtp, ftp, bulk); attack families deviate on connection-count
features, packet sizes, handshake timing, or use services absent from normal
traffic. Identical (n, seed, attack_fraction) always yields identical rows.

Text columns are generated as integer codes into small pools. The CSV is
written by a numpy byte writer: each slice of rows becomes one matrix of
NUL-padded uint32 words (3-digit groups gathered from digit tables, pool
texts gathered by code, separators OR-ed into each field's last word), and
one boolean gather that drops the NUL bytes leaves the slice's lines.
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


#: Each text column's pool; the column holds integer codes into it.
_POOLS = {
    "srcip": tuple(f"59.166.0.{i}" for i in range(50)) + tuple(f"175.45.176.{i}" for i in range(10)),
    "dstip": tuple(f"149.171.126.{i}" for i in range(20)),
    "proto": ("tcp", "udp"),
    "state": ("CON", "FIN", "INT", "REQ"),
    "service": ("-", "dns", "ftp", "http", "irc", "pop3", "smtp", "ssh"),
    "attack_cat": ("",) + tuple(f.category for f in _ATTACK_FAMILIES),
}


def _code(column: str, text: str) -> int:
    """The code of a pool text; every pool fits a uint8 code."""
    return _POOLS[column].index(text)


def _pick(rng: np.random.Generator, n: int, column: str, options: tuple[tuple[str, float], ...]) -> np.ndarray:
    """Codes of n draws from weighted options; ``rng.choice(len(options))``
    draws the indices ``rng.choice(texts)`` would."""
    codes = np.array([_code(column, v) for v, _ in options], dtype=np.uint8)
    probs = np.array([p for _, p in options])
    return codes[rng.choice(len(codes), size=n, p=probs / probs.sum())]


def _pos_normal(rng, n, mean, sd, low=0.0):
    return np.maximum(np.abs(rng.normal(mean, sd, n)), low)


def _family_columns(rng: np.random.Generator, n: int, fam: _Family) -> dict:
    proto = _pick(rng, n, "proto", fam.proto)
    service = _pick(rng, n, "service", fam.service)
    state = _pick(rng, n, "state", fam.state)
    is_tcp = proto == _code("proto", "tcp")
    is_http = service == _code("service", "http")
    is_ftp = service == _code("service", "ftp")

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

    dsport = np.array([_SERVICE_PORTS.get(name, 0) for name in _POOLS["service"]])[service]
    unported = dsport == 0
    dsport[unported] = rng.integers(1, 65536, int(unported.sum()))

    cols = {
        "srcip": rng.choice(len(_POOLS["srcip"]), n).astype(np.uint8),
        "sport": rng.integers(1024, 65536, n),
        "dstip": rng.choice(len(_POOLS["dstip"]), n).astype(np.uint8),
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
        "trans_depth": np.where(is_http, rng.poisson(0.6, n), 0),
        "res_bdy_len": np.where(is_http, rng.poisson(400, n), 0),
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
        "ct_flw_http_mthd": np.where(is_http, rng.poisson(1.0, n), 0),
        "is_ftp_login": np.where(is_ftp, (rng.random(n) < 0.7).astype(np.int64), 0),
        "ct_ftp_cmd": np.where(is_ftp, rng.poisson(1.2, n), 0),
        "ct_srv_src": rng.poisson(fam.ct_dst_src + 2.0, n),
        "ct_srv_dst": rng.poisson(fam.ct_dst + 2.0, n),
        "ct_dst_ltm": rng.poisson(fam.ct_dst, n),
        "ct_src_ltm": rng.poisson(fam.ct_dst * 0.8 + 0.5, n),
        "ct_src_dport_ltm": rng.poisson(fam.ct_src_dport, n),
        "ct_dst_sport_ltm": rng.poisson(fam.ct_dst_sport, n),
        "ct_dst_src_ltm": rng.poisson(fam.ct_dst_src, n),
        "attack_cat": np.full(n, _code("attack_cat", fam.category), dtype=np.uint8),
        "label": np.full(n, 0 if fam.category == "" else 1, dtype=np.int64),
    }
    return cols


def _words(texts: list[str], width: int = 4) -> np.ndarray:
    """ASCII texts as rows of uint32 words, each NUL-padded to ``width`` bytes."""
    return np.array([t.encode("ascii") for t in texts], dtype=f"S{width}").view(np.uint32).reshape(len(texts), -1)


def _fit(texts) -> int:
    """Words that hold each text and at least one NUL byte after it."""
    return max(map(len, texts)) // 4 + 1


#: Words of a number's lowest 3-digit group: ``i`` is i unpadded (the group
#: leads the number), ``1000 + i`` is i zero-padded to three digits.
_LOW_GROUP = _words([str(i) for i in range(1000)] + [f"{i:03d}" for i in range(1000)]).ravel()
#: The same for a higher group, where a 0 that leads prints nothing.
_HIGH_GROUP = _LOW_GROUP.copy()
_HIGH_GROUP[0] = 0
#: Words of the first three fraction digits, after the point.
_POINT_GROUP = _words([f".{i:03d}" for i in range(1000)]).ravel()
_MINUS = _words(["-"])[0, 0]


def _magnitude_words(mag: np.ndarray) -> list[np.ndarray]:
    """Unsigned integers in decimal, one word per 3-digit group, most
    significant first; a group above a value's leading one is all NUL."""
    top = int(mag.max(initial=0))
    hi = mag.astype(np.uint32) if top < 2**32 else mag
    table, groups = _LOW_GROUP, []
    while True:
        rest = hi // 1000
        # group + 1000 picks the zero-padded text when a higher group leads
        groups.append(table.take(hi - 1000 * (np.maximum(rest, 1) - 1)))
        top //= 1000
        if not top:
            return groups[::-1]
        hi, table = rest, _HIGH_GROUP


def _integer_words(values: np.ndarray) -> list[np.ndarray]:
    """``str`` of each integer, the sign in a word of its own when the
    values hold a negative one; exact for every int64, ``-(2**63)`` too."""
    negative = values < 0
    mag = values.astype(np.uint64)
    np.negative(mag, out=mag, where=negative)
    groups = _magnitude_words(mag)
    if negative.any():
        groups.insert(0, np.where(negative, _MINUS, np.uint32(0)))
    return groups


def _fixed_words(x: np.ndarray) -> list[np.ndarray]:
    """The ``"%.6f"`` texts of float64 values.

    ``"%.6f"`` prints the exact product ``t = x * 10**6`` rounded to an
    integer. Rounding is monotone, so ``t`` and ``y = fl(x * 1e6)`` lie on
    the same side of every representable half-integer, and below 2**52
    every half-integer is representable: when ``y < 2**52`` is not itself a
    half-integer, ``rint(y)`` is that integer, printed as its whole part and
    two fraction groups. Every other value, every negative one and -0.0
    (hence ``signbit``) is formatted whole with ``"%.6f"`` into words wide
    enough for every such text.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        y = x * 1e6
        r = np.rint(y)
        exact = ~np.signbit(x) & (y < 2.0**52) & (np.abs(y - r) != 0.5)
    t = np.where(exact, r, 0.0).astype(np.uint64)
    whole = t // 10**6
    frac = (t - whole * 10**6).astype(np.uint32)
    high = frac // 1000
    words = _magnitude_words(whole) + [_POINT_GROUP.take(high), _LOW_GROUP.take(frac - 1000 * high + 1000)]
    inexact = np.flatnonzero(~exact)
    if not len(inexact):
        return words
    texts = ["%.6f" % v for v in x[inexact].tolist()]
    block = np.zeros((max(len(words), _fit(texts)), len(x)), np.uint32)
    block[-len(words) :] = words
    block[:, inexact] = _words(texts, 4 * len(block)).T
    return list(block)


#: Each text column's pool as word rows: ``_POOL_WORDS[name][:, code]``.
_POOL_WORDS = {name: _words(pool, 4 * _fit(pool)).T.copy() for name, pool in _POOLS.items()}


def _column_words(name: str, values: np.ndarray) -> list[np.ndarray]:
    """One column's field texts as NUL-padded uint32 words, one array a word
    position; every text ends before the last word's last byte."""
    if name in _POOL_WORDS:
        return list(_POOL_WORDS[name].take(values, axis=1))
    if values.dtype.kind == "f":
        return _fixed_words(values)
    return _integer_words(values)


def _generate_columns(n: int, seed: int, attack_fraction: float) -> dict[str, np.ndarray]:
    """n flows as one array per schema column, shuffled and timestamped."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= attack_fraction <= 1.0:
        raise ValueError("attack_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)

    n_attack = round(n * attack_fraction)
    n_normal = n - n_attack

    def _counts(total: int, families) -> list[int]:
        weights = np.array([f.weight for f in families])
        counts = rng.multinomial(total, weights / weights.sum())
        return counts.tolist()

    blocks: list[dict] = []
    for fam, count in zip(_NORMAL_FAMILIES, _counts(n_normal, _NORMAL_FAMILIES)):
        if count:
            blocks.append(_family_columns(rng, count, fam))
    for fam, count in zip(_ATTACK_FAMILIES, _counts(n_attack, _ATTACK_FAMILIES)):
        if count:
            blocks.append(_family_columns(rng, count, fam))

    # Each column is permuted as it is merged and its family blocks dropped,
    # so the blocks, the merged and the permuted copies are never all alive.
    order = rng.permutation(n)
    merged = {
        name: np.concatenate([b.pop(name) for b in blocks])[order] for name in default_schema().names
    }

    stime = 1424219000 + np.cumsum(rng.exponential(0.08, n)).astype(np.int64)
    merged["stime"] = stime
    merged["ltime"] = stime + np.ceil(merged["dur"]).astype(np.int64)
    return merged


#: Rows formatted at a time: only one slice's word matrix is alive at once.
#: 8,192-row slices raised synth's peak RSS at 160k rows by about 11 MB.
_SLICE_ROWS = 4096
#: A separator in a word's last byte; a field's last word leaves it NUL.
_COMMA, _NEWLINE = _words(["\0\0\0,", "\0\0\0\n"])[:, 0]


def _write_csv(stream, columns: dict[str, np.ndarray]) -> None:
    """Write a header and the columns as CSV lines to a binary stream.

    Each slice of rows becomes one matrix of NUL-padded uint32 words, a row
    a line; each field's separator is OR-ed into its last word. Dropping
    every NUL byte leaves the slice's lines: no text holds a NUL, and no
    field needs quoting.
    """
    names = default_schema().names
    separators = [_COMMA] * (len(names) - 1) + [_NEWLINE]
    stream.write((",".join(names) + "\n").encode("ascii"))
    for start in range(0, len(columns[names[0]]), _SLICE_ROWS):
        words = []
        for name, separator in zip(names, separators):
            words += _column_words(name, columns[name][start : start + _SLICE_ROWS])
            words[-1] = words[-1] | separator
        flat = np.ascontiguousarray(np.stack(words).T).view(np.uint8).ravel()
        stream.write(flat.compress(flat != 0))


def write_synthetic_csv(path, n: int, seed: int, attack_fraction: float = 0.35) -> dict:
    """Write a synthetic flow CSV; returns a small summary dict."""
    columns = _generate_columns(n, seed, attack_fraction)
    with Path(path).open("wb") as stream:
        _write_csv(stream, columns)
    n_attack = int(columns["label"].sum())
    return {"rows": n, "normal": n - n_attack, "attack": n_attack, "seed": seed}
