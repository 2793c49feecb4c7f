/**
 * @file
 * Regenerates Table I and Figs. 3-4: the worked example of CBWS
 * construction and differential calculation.
 *
 * Part 1 replays the exact access trace of the paper's Table I and
 * prints the evolving CBWS and differential.
 * Part 2 runs the actual stencil kernel (Fig. 2) and prints the
 * CBWS matrix of consecutive innermost-loop iterations (Fig. 3) and
 * their differential vectors (Fig. 4).
 */

#include <cstdio>
#include <vector>

#include "common.hh"
#include "core/cbws_types.hh"
#include "sim/experiment.hh"
#include "workloads/registry.hh"

using namespace cbws;

namespace
{

void
table1Example()
{
    std::printf("---- Table I: CBWS construction from a 2-block "
                "trace (64 B lines) ----\n");
    struct Access
    {
        const char *op;
        Addr addr;
    };
    const Access block0[] = {{"LD", 0x4800}, {"LD", 0x4804},
                             {"LD", 0xFE50}, {"LD", 0x481C},
                             {"ST", 0xFE50}, {"LD", 0x7FE0},
                             {"ST", 0x7FE0}};
    const Access block1[] = {{"LD", 0x4900}, {"LD", 0x4904},
                             {"LD", 0xFC50}, {"LD", 0x491C},
                             {"ST", 0x7FE0}};

    auto print_cbws = [](const CbwsVector &v) {
        std::printf("{");
        for (std::size_t i = 0; i < v.size(); ++i)
            std::printf("%s%X", i ? "," : "", v[i]);
        std::printf("}");
    };

    CbwsVector cbws0;
    std::printf("%-18s %-8s %-24s\n", "instruction", "line#",
                "CBWS0");
    for (const auto &a : block0) {
        cbws0.push(static_cast<std::uint32_t>(lineOf(a.addr)), 16);
        std::printf("%-3s %-14llX %-8llX ", a.op,
                    static_cast<unsigned long long>(a.addr),
                    static_cast<unsigned long long>(lineOf(a.addr)));
        print_cbws(cbws0);
        std::printf("\n");
    }

    CbwsVector cbws1;
    std::printf("\n%-18s %-8s %-24s %s\n", "instruction", "line#",
                "CBWS1", "delta(0,1)");
    for (const auto &a : block1) {
        cbws1.push(static_cast<std::uint32_t>(lineOf(a.addr)), 16);
        const auto d = CbwsDifferential::between(cbws1, cbws0);
        std::printf("%-3s %-14llX %-8llX ", a.op,
                    static_cast<unsigned long long>(a.addr),
                    static_cast<unsigned long long>(lineOf(a.addr)));
        print_cbws(cbws1);
        std::printf(" {");
        for (std::size_t i = 0; i < d.size(); ++i)
            std::printf("%s%d", i ? "," : "", d[i]);
        std::printf("}\n");
    }
    std::printf("\nPaper Table I: CBWS0 = {120,3F9,1FF}, "
                "CBWS1 = {124,3F1,1FF}, delta = {4,-8,0}.\n\n");
}

void
stencilFigure()
{
    std::printf("---- Figs. 3-4: CBWS matrix of the Stencil inner "
                "loop ----\n");
    auto w = findWorkload("stencil-default");
    WorkloadParams params;
    params.maxInstructions = 4000;
    Trace trace;
    w->generate(trace, params);

    // Collect the CBWSs of consecutive committed iterations straight
    // from the trace (the kernel executes the Fig. 2 code).
    std::vector<CbwsVector> cbwss;
    CbwsVector current;
    bool in_block = false;
    for (const auto &rec : trace) {
        if (rec.cls == InstClass::BlockBegin) {
            current.clear();
            in_block = true;
        } else if (rec.cls == InstClass::BlockEnd) {
            if (in_block)
                cbwss.push_back(current);
            in_block = false;
            if (cbwss.size() >= 64)
                break;
        } else if (in_block && isMemory(rec.cls)) {
            current.push(static_cast<std::uint32_t>(rec.line()), 16);
        }
    }

    // Skip a few warm-up iterations, then print 8 like the paper.
    const std::size_t first = 8;
    std::printf("%-8s | CBWS members (line numbers)\n", "iter");
    for (std::size_t i = first; i < first + 8 && i < cbwss.size();
         ++i) {
        std::printf("CBWS%-4zu | ", i - first);
        for (std::size_t j = 0; j < cbwss[i].size(); ++j)
            std::printf("%8X", cbwss[i][j]);
        std::printf("\n");
    }
    std::printf("\n%-12s | differential (element-wise deltas)\n",
                "pair");
    for (std::size_t i = first + 1;
         i < first + 8 && i < cbwss.size(); ++i) {
        const auto d =
            CbwsDifferential::between(cbwss[i], cbwss[i - 1]);
        std::printf("CBWS%zu-CBWS%-4zu | ", i - first,
                    i - first - 1);
        for (std::size_t j = 0; j < d.size(); ++j)
            std::printf("%8d", d[j]);
        std::printf("\n");
    }
    std::printf("\nPaper Fig. 4: after the two cached coefficient "
                "loads (deltas 0,0), every stream\nadvances by the "
                "same constant line stride each iteration.\n");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::init(argc, argv, bench::Options::None);
    std::printf("Table I + Figs. 3-4 - CBWS construction worked "
                "example\n\n");
    table1Example();
    stencilFigure();
    return 0;
}
