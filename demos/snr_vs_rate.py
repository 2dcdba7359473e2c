"""
Compare the reconstruction SNR of the joint pipeline against the separate
privacy-then-compress baseline across bit rates.

The joint pipeline designs its privacy noise together with the quantizer,
so its SNR barely moves as the rate drops; the separate baseline must
spend dynamic range on the already-noisy vector and deteriorates quickly.

Run:  python3 demos/snr_vs_rate.py
"""

from jopeq.cli import load_config, snr_sweep


def main() -> None:
    rates = range(1, 9)
    epsilons = (3.0, 4.0)
    cfg = load_config(None)
    cfg["sweep.snr_dim"] = "100000"
    cfg["sweep.rates"] = ",".join(str(r) for r in rates)
    cfg["sweep.epsilons"] = ",".join(f"{e:g}" for e in epsilons)
    cfg["sweep.baselines"] = "jopeq,separate"
    snr = {(r, e, b): value for r, e, b, value in snr_sweep(cfg, 0)}

    print(f"{'rate':>4}  " + "  ".join(
        f"joint(e={e:g})  separate(e={e:g})" for e in epsilons))
    for r in rates:
        cells = [f"{snr[r, e, 'jopeq']:10.2f}  {snr[r, e, 'separate']:14.2f}"
                 for e in epsilons]
        print(f"{r:>4}  " + "  ".join(cells))

    print("\nSNR in dB. Note how the joint column is nearly flat in the "
          "rate while the separate column loses several dB between R=4 "
          "and R=1.")


if __name__ == "__main__":
    main()
