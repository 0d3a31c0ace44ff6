"""Seeded input generator for the benchmark workloads.

Writes the files the program reads (items.jsonl, sequences.tsv, queries,
pairs.tsv, labeled_sets.jsonl) plus the serving model tables, all drawn from
``numpy.random.default_rng(seed)``: the same (workload, seed) gives the same
bytes. The program never sees anything but these files.

Text is a Zipfian topic model: each item belongs to a topic (topic
popularity is Zipfian), and draws most of its tokens from that topic's word
pool (Zipfian within the pool) and the rest from a shared pool of common
words. Consumption sequences mostly stay inside one home topic per user, so
the co-occurrence graph links items of the same topic whose texts may share
no word -- which is what zero-shot transfer has to bridge.

Run as ``python3 perfbench/gen.py --workload NAME --seed N --out DIR``; each
phase of the workload gets its own subdirectory of DIR.
"""
from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Input sizes per workload. They are calibrated so that one pipeline
# iteration takes a few seconds on one core, which lets a run repeat it and
# report medians.
SIZES = {
    "train_te": dict(items=2000, topics=40, pool=60, common=300, users=2400,
                     seq_len=(20, 60), queries=1000, pairs=400),
    "serve": dict(items=6000, topics=150, pool=40, common=300, users=4000,
                  seq_len=(10, 40), queries=1000, pairs=200, labeled=100, d=64),
    "grow": dict(items=1200, topics=30, pool=60, common=300, users=7000,
                 seq_len=(20, 100), queries=200, grow_items=0.10,
                 grow_users=0.25),
}


def zipf_p(n: int, a: float = 1.1) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1) ** a
    return p / p.sum()


@dataclass
class TopicText:
    item_ids: list[str]
    texts: list[list[str]]
    topics: np.ndarray          # topic of each item
    pools: list[list[str]]      # word pool of each topic
    common: list[str]


def make_topic_text(rng: np.random.Generator, n_items: int, n_topics: int,
                    pool: int, n_common: int, first_item: int = 0) -> TopicText:
    pools = [[f"t{t}w{k}" for k in range(pool)] for t in range(n_topics)]
    common = [f"c{k}" for k in range(n_common)]
    topics = rng.choice(n_topics, size=n_items, p=zipf_p(n_topics, 0.8))
    lens = rng.integers(3, 11, size=n_items)
    pool_p, common_p = zipf_p(pool), zipf_p(n_common)
    texts = []
    for t, ln in zip(topics, lens):
        from_pool = rng.random(ln) < 0.8
        pw = rng.choice(pool, size=ln, p=pool_p)
        cw = rng.choice(n_common, size=ln, p=common_p)
        texts.append([pools[t][w] if fp else common[c]
                      for fp, w, c in zip(from_pool, pw, cw)])
    ids = [f"it{first_item + i}" for i in range(n_items)]
    return TopicText(ids, texts, topics, pools, common)


def make_sequences(rng: np.random.Generator, topics: np.ndarray, n_users: int,
                   seq_len: tuple[int, int]) -> list[list[int]]:
    """Per-user item index sequences, mostly inside one home topic."""
    n_topics = int(topics.max()) + 1
    members = [np.nonzero(topics == t)[0] for t in range(n_topics)]
    popular = [zipf_p(len(mb), 0.9) if len(mb) else None for mb in members]
    topic_p = np.array([len(mb) for mb in members], dtype=float)
    topic_p /= topic_p.sum()
    seqs = []
    for _ in range(n_users):
        home = rng.choice(n_topics, p=topic_p)
        ln = int(rng.integers(*seq_len))
        stray = rng.random(ln) < 0.15
        seq = rng.choice(members[home], size=ln, p=popular[home])
        for pos in np.nonzero(stray)[0]:
            t = rng.choice(n_topics, p=topic_p)
            seq[pos] = rng.choice(members[t], p=popular[t])
        seqs.append(seq.tolist())
    return seqs


def doc_freq(texts: list[list[str]]) -> dict[str, int]:
    df: dict[str, int] = {}
    for words in texts:
        for w in set(words):
            df[w] = df.get(w, 0) + 1
    return df


def topic_queries(rng: np.random.Generator, tt: TopicText, df: dict[str, int],
                  count: int, max_words: int) -> list[list[str]]:
    """Queries of 1..max_words pool words (each in >= 2 items) of one topic."""
    frequent = [[w for w in pool if df.get(w, 0) >= 2] for pool in tt.pools]
    live = [t for t, ws in enumerate(frequent) if ws]
    out = []
    for _ in range(count):
        ws = frequent[live[rng.integers(len(live))]]
        k = int(rng.integers(1, max_words + 1))
        out.append([ws[j] for j in rng.choice(len(ws), size=min(k, len(ws)), replace=False)])
    return out


def transfer_pairs(rng: np.random.Generator, tt: TopicText, df: dict[str, int],
                   seqs: list[list[int]], count: int) -> list[tuple[list[str], str]]:
    """(query words from item i's text, most frequent successor j of i).

    j is therefore a graph neighbour of i (the top co-occurrence survives
    any neighbour cap), and the query shares no word with j's text.
    """
    succ: dict[int, dict[int, int]] = {}
    for seq in seqs:
        for q, p in zip(seq, seq[1:]):
            if q != p:
                row = succ.setdefault(q, {})
                row[p] = row.get(p, 0) + 1
    seeds = sorted(succ)
    out = []
    for i in rng.permutation(seeds):
        row = succ[int(i)]
        j = min(row, key=lambda p: (-row[p], p))
        target_words = set(tt.texts[j])
        cand = sorted({w for w in tt.texts[int(i)] if df[w] >= 2} - target_words)
        if not cand:
            continue
        k = int(rng.integers(1, min(3, len(cand)) + 1))
        words = [cand[c] for c in rng.choice(len(cand), size=k, replace=False)]
        out.append((words, tt.item_ids[j]))
        if len(out) == count:
            break
    return out


def write_items(path: Path, tt: TopicText) -> None:
    with open(path, "w") as fh:
        for item_id, words in zip(tt.item_ids, tt.texts):
            fh.write(json.dumps({"id": item_id, "words": words}) + "\n")


def write_sequences(path: Path, seqs: list[list[int]], ids: list[str]) -> None:
    with open(path, "w") as fh:
        for u, seq in enumerate(seqs):
            fh.write(f"u{u}\t{','.join(ids[i] for i in seq)}\n")


def write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines))


def gen_train_te(rng: np.random.Generator, out: Path) -> dict:
    s = SIZES["train_te"]
    tt = make_topic_text(rng, s["items"], s["topics"], s["pool"], s["common"])
    seqs = make_sequences(rng, tt.topics, s["users"], s["seq_len"])
    df = doc_freq(tt.texts)
    write_items(out / "items.jsonl", tt)
    write_sequences(out / "sequences.tsv", seqs, tt.item_ids)
    write_lines(out / "queries.txt",
                [" ".join(q) for q in topic_queries(rng, tt, df, s["queries"], 3)])
    pairs = transfer_pairs(rng, tt, df, seqs, s["pairs"])
    write_lines(out / "pairs.tsv", [f"{' '.join(q)}\t{j}" for q, j in pairs])
    return {"items": len(tt.item_ids), "transitions": sum(len(q) - 1 for q in seqs),
            "queries": s["queries"], "pairs": len(pairs)}


def gen_grow(rng: np.random.Generator, out: Path) -> dict:
    s = SIZES["grow"]
    old = make_topic_text(rng, s["items"], s["topics"], s["pool"], s["common"])
    n_new = int(round(s["items"] * s["grow_items"]))
    # New items draw from the old topics plus a few fresh words per topic.
    new = make_topic_text(rng, n_new, s["topics"], s["pool"], s["common"],
                          first_item=len(old.item_ids))
    extra_pool = max(1, s["pool"] // 10)
    for k, t in enumerate(new.topics):
        if rng.random() < 0.5:
            new.texts[k].append(f"t{t}x{int(rng.integers(extra_pool))}")
    grown = TopicText(old.item_ids + new.item_ids, old.texts + new.texts,
                      np.concatenate([old.topics, new.topics]), old.pools, old.common)
    old_seqs = make_sequences(rng, old.topics, s["users"], s["seq_len"])
    more = int(round(s["users"] * s["grow_users"]))
    new_seqs = make_sequences(rng, grown.topics, more, s["seq_len"])
    write_items(out / "items_old.jsonl", old)
    write_sequences(out / "sequences_old.tsv", old_seqs, old.item_ids)
    write_items(out / "items_new.jsonl", grown)
    with open(out / "sequences_new.tsv", "w") as fh:
        for u, seq in enumerate(old_seqs):
            fh.write(f"u{u}\t{','.join(old.item_ids[i] for i in seq)}\n")
        for u, seq in enumerate(new_seqs):
            fh.write(f"v{u}\t{','.join(grown.item_ids[i] for i in seq)}\n")
    df = doc_freq(grown.texts)
    write_lines(out / "queries.txt",
                [" ".join(q) for q in topic_queries(rng, grown, df, s["queries"], 3)])
    return {"items_old": len(old.item_ids), "items_new": len(grown.item_ids),
            "transitions_old": sum(len(q) - 1 for q in old_seqs),
            "transitions_new": sum(len(q) - 1 for q in old_seqs + new_seqs)}


def gen_serve(rng: np.random.Generator, out: Path) -> dict:
    """Serving corpus plus two model tables keyed by token and item id.

    Word vectors sit near their topic's centroid; an item vector is the mean
    of its word vectors plus noise, so text queries find their items. A few
    item rows are exact copies of another row (planted score ties) and a few
    are zero (cosine must skip them). The second, dot-scored model perturbs
    the first.
    """
    s = SIZES["serve"]
    d = s["d"]
    tt = make_topic_text(rng, s["items"], s["topics"], s["pool"], s["common"])
    seqs = make_sequences(rng, tt.topics, s["users"], s["seq_len"])
    df = doc_freq(tt.texts)
    write_items(out / "items.jsonl", tt)
    write_sequences(out / "sequences.tsv", seqs, tt.item_ids)

    centroids = rng.standard_normal((s["topics"], d))
    wvec: dict[str, np.ndarray] = {}
    for t, pool in enumerate(tt.pools):
        for w in pool:
            wvec[w] = centroids[t] + 0.5 * rng.standard_normal(d)
    for w in tt.common:
        wvec[w] = 0.5 * rng.standard_normal(d)
    # Every bigram the ingest may keep gets a vector too: the mean of its parts.
    for words in tt.texts:
        for a, b in zip(words, words[1:]):
            wvec.setdefault(f"{a}_{b}", 0.5 * (wvec[a] + wvec[b]))
    tokens = sorted(wvec)
    W = np.stack([wvec[w] for w in tokens]).astype(np.float32)
    V = np.stack([np.mean([wvec[w] for w in words], axis=0) for words in tt.texts])
    V = (V + 0.3 * rng.standard_normal(V.shape)).astype(np.float32)
    n = len(V)
    rows = rng.permutation(n)
    n_dup, n_zero = n // 40, n // 100
    dup_src, dup_dst = rows[:n_dup], rows[n_dup:2 * n_dup]
    zero = rows[2 * n_dup:2 * n_dup + n_zero]
    V[dup_dst] = V[dup_src]
    V[zero] = 0.0
    W2 = (W + 0.2 * rng.standard_normal(W.shape)).astype(np.float32)
    V2 = (V + 0.2 * rng.standard_normal(V.shape)).astype(np.float32)
    V2[dup_dst] = V2[dup_src]
    np.savez(out / "serve_model.npz", tokens=np.array(tokens), item_ids=np.array(tt.item_ids),
             W=W, V=V, W2=W2, V2=V2, zero_rows=np.sort(zero), dup_rows=np.sort(dup_dst))

    write_lines(out / "queries.txt",
                [" ".join(q) for q in topic_queries(rng, tt, df, s["queries"], 5)])
    # Serving pairs ask for an item by words of its own text.
    pairs = []
    for j in rng.permutation(n):
        cand = sorted({w for w in tt.texts[j] if df[w] >= 2})
        if not cand:
            continue
        if len(pairs) == s["pairs"]:
            break
        k = int(rng.integers(1, min(3, len(cand)) + 1))
        pairs.append(([cand[c] for c in rng.choice(len(cand), size=k, replace=False)],
                      tt.item_ids[j]))
    write_lines(out / "pairs.tsv", [f"{' '.join(q)}\t{j}" for q, j in pairs])
    labeled = []
    for q in topic_queries(rng, tt, df, s["labeled"], 2):
        rel = [tt.item_ids[i] for i, words in enumerate(tt.texts) if q[0] in words][:20]
        labeled.append(json.dumps({"query": q, "relevant": rel}))
    write_lines(out / "labeled_sets.jsonl", labeled)
    return {"items": n, "tokens": len(tokens), "dup_rows": int(n_dup),
            "zero_rows": int(n_zero), "pairs": len(pairs)}


PHASES = {"train_te": gen_train_te, "serve": gen_serve, "grow": gen_grow}
# A workload runs one or more phases, each on its own inputs subdirectory.
WORKLOAD_PHASES = {"batch": ("train_te", "grow"), "serve": ("serve",)}


def generate(workload: str, seed: int, out: Path) -> dict:
    summary = {}
    for phase in WORKLOAD_PHASES[workload]:
        sub = out / phase
        sub.mkdir(parents=True, exist_ok=True)
        stream = sorted(PHASES).index(phase)
        summary[phase] = PHASES[phase](np.random.default_rng([seed, stream]), sub)
        (sub / "gen_summary.json").write_text(json.dumps(summary[phase], sort_keys=True))
    return summary


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_PHASES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    print(json.dumps(generate(args.workload, args.seed, Path(args.out)), sort_keys=True))


if __name__ == "__main__":
    main()
