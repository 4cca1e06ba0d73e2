"""Canonical bases drawn as labeled diagrams.

Builds the dihedral group of order 8, its Hecke algebra and
Temperley-Lieb quotient, computes the canonical basis, and maps each
basis element to its diagram picture, matching the admissible set.

Run:  python3 demos/canonical_images.py
"""

from planalg import admissible, coxeter_group, hecke, rho_build, tl


def main():
    g = coxeter_group("B", 2)
    print(f"Group {g.name}: order {g.order}, longest element length "
          f"{max(g.lengths)}")

    h = hecke(g)
    print("\nKazhdan-Lusztig polynomials P_{e,w}:")
    for w in range(g.order):
        print(f"  P[e, {g.word(w):>4}] = {h.kl_polynomial(0, w)}")

    q = tl(g)
    print(f"\nFully commutative elements ({len(q.wc)}):",
          ", ".join(g.word(w) for w in q.wc))

    rep = rho_build("B", "B", 2)
    print(f"\nDiagram images in P(3,3) (injective: {rep.injective}):")
    for w in q.wc:
        print(f"  c[{g.word(w):>4}] -> {rep.images[w].to_text()}")

    adm = admissible("B", rep.embedding.ctx)
    same = set(rep.images.values()) == set(adm.members)
    print(f"\nImage set equals the admissible set: {same}")


if __name__ == "__main__":
    main()
