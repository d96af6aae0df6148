"""Regenerate expected.json, the frozen answers of every fixed query.

Run from the repository root at the commit whose answers are to be
frozen:

    python3 perfbench/freeze.py

It records the ``all_witnesses()`` rows and the simple crusts that the
search-witness and catalog query lists are built from, runs every fixed
query once and stores its summarized answer.  It refuses to freeze an
answer that fails its independent check.
"""

import json
import sys

import run
import workloads


def main():
    run.import_barkfib()
    from barkfib.crust import STELLAR_MODELS, crust_to_json, enumerate_simple_crusts
    from barkfib.splitting import all_witnesses

    fixture = {
        "frozen_at": run.commit(),
        "source_sha256": run.source_digest(),
        "witness_rows": [
            {
                "label": label,
                "target": str(w.target),
                "parts": [str(base) for base, _ in w.factors],
            }
            for label, w in all_witnesses()
        ],
        "crusts": {
            name: {
                str(l): [crust_to_json(c) for c in enumerate_simple_crusts(STELLAR_MODELS[name], l)]
                for l in workloads.BARK_MULTIPLICITIES
            }
            for name in workloads.STELLAR_NAMES
        },
    }
    answers = {}
    for workload in workloads.WORKLOADS:
        for q in workloads.build_queries(workload, 0, fixture):
            if q.summarize is None:
                continue
            answer = q.call()
            if q.verify is not None and not q.verify(answer):
                sys.exit("refusing to freeze %r: independent check failed" % q.qid)
            answers[q.qid] = json.loads(json.dumps(q.summarize(answer)))
    fixture["answers"] = answers
    workloads.EXPECTED_PATH.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    print("froze %d answers to %s" % (len(answers), workloads.EXPECTED_PATH))


if __name__ == "__main__":
    main()
