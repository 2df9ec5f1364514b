/**
 * @file
 * Unit tests for the DRAM model: latency, bank and bus contention,
 * request buffer occupancy, and demand reservations.
 */

#include <gtest/gtest.h>

#include "dram/dram.hh"

namespace ecdp
{
namespace
{

DramParams
params()
{
    return DramParams{}; // Table 5 defaults
}

TEST(Dram, UncontendedLatencyIs450)
{
    DramSystem dram(params(), 1);
    auto done = dram.read(0, 0x40000000, Cycle{1000});
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(*done - 1000, Cycle{450});
}

TEST(Dram, SameBankRequestsSerializeOnBankTime)
{
    DramSystem dram(params(), 1);
    Cycle first = *dram.read(0, 0x40000000, Cycle{});
    // Same block address -> same bank.
    Cycle second = *dram.read(0, 0x40000000, Cycle{});
    EXPECT_GE(second, first + params().bankBusy);
}

TEST(Dram, DifferentBanksOverlapButShareTheBus)
{
    DramSystem dram(params(), 1);
    Cycle first = *dram.read(0, 0x40000000, Cycle{});
    // A different bank: bank time overlaps, bus serializes.
    Cycle second = *dram.read(0, 0x40000080, Cycle{});
    EXPECT_EQ(second, first + params().busTransfer);
}

TEST(Dram, BankHashFollowsConfiguredBlockSize)
{
    // With 64 B blocks the bank hash must discard exactly 6 offset
    // bits. The old hard-coded >>7 folded each adjacent 64 B block
    // pair onto one bank, so consecutive blocks serialized on bank
    // busy time instead of overlapping across banks.
    DramSystem dram(DramParams{}, 1, 64);
    Cycle first = *dram.read(0, 0x40000000, Cycle{});
    Cycle second = *dram.read(0, 0x40000040, Cycle{});
    // Adjacent 64 B blocks: different banks, bus-serialized only.
    EXPECT_EQ(second, first + DramParams{}.busTransfer);
}

TEST(Dram, DefaultBlockSizeBankHashUnchanged)
{
    // 128 B blocks (the Table 5 default) keep the historical >>7
    // behaviour: same block -> same bank -> bankBusy serialization.
    DramSystem dram(DramParams{}, 1, 128);
    Cycle first = *dram.read(0, 0x40000000, Cycle{});
    Cycle second = *dram.read(0, 0x40000000, Cycle{});
    EXPECT_GE(second, first + DramParams{}.bankBusy);
}

TEST(Dram, BusSerializesEveryTransfer)
{
    DramSystem dram(params(), 1);
    Cycle prev{};
    for (unsigned i = 0; i < 16; ++i) {
        Cycle done = *dram.read(0, 0x40000000 + i * 128, Cycle{});
        if (i > 0) {
            EXPECT_GE(done, prev + params().busTransfer);
        }
        prev = done;
    }
}

TEST(Dram, LaterRequestsNeverDrainFirst)
{
    // The per-pair wake times of the simulation loop rely on this: a
    // request accepted later, from any core, to any bank, completes
    // after every request already in flight, so it cannot bring the
    // buffer's next drain forward.
    DramSystem dram(params(), 4);
    Cycle last{};
    for (unsigned i = 0; i < 48; ++i) {
        const Cycle now{i * 37};
        const Cycle drain = dram.nextEventCycle(now);
        const unsigned core = (i * 7) % 4;
        if (i % 5 == 4) {
            dram.writeback(core, 0x42000000 + i * 4096, now);
        } else {
            const Cycle done = *dram.read(core, 0x40000000 + i * 896, now);
            EXPECT_GT(done, last) << "request " << i;
            last = done;
        }
        if (drain != kNoEventCycle) {
            EXPECT_EQ(dram.nextEventCycle(now), drain) << "request " << i;
        }
    }
}

TEST(Dram, CountsBusTransactions)
{
    DramSystem dram(params(), 2);
    dram.read(0, 0x40000000, Cycle{});
    dram.read(1, 0x40010000, Cycle{});
    dram.writeback(0, 0x40020000, Cycle{});
    EXPECT_EQ(dram.busTransactions(), 3u);
    EXPECT_EQ(dram.busTransactions(0), 2u);
    EXPECT_EQ(dram.busTransactions(1), 1u);
}

TEST(Dram, BufferRejectsWhenFull)
{
    DramSystem dram(params(), 1); // 32 entries
    for (unsigned i = 0; i < 32; ++i)
        EXPECT_TRUE(dram.read(0, 0x40000000 + i * 128, Cycle{}).has_value());
    EXPECT_FALSE(dram.read(0, 0x41000000, Cycle{}).has_value());
}

TEST(Dram, BufferDrainsAsRequestsComplete)
{
    DramSystem dram(params(), 1);
    Cycle last{};
    for (unsigned i = 0; i < 32; ++i)
        last = *dram.read(0, 0x40000000 + i * 128, Cycle{});
    EXPECT_FALSE(dram.read(0, 0x41000000, Cycle{}).has_value());
    EXPECT_TRUE(dram.read(0, 0x41000000, last + 1).has_value());
}

TEST(Dram, ReserveKeepsEntriesForDemands)
{
    DramSystem dram(params(), 1);
    // Prefetches (reserve 8) may only use 24 of the 32 entries.
    unsigned accepted = 0;
    for (unsigned i = 0; i < 32; ++i) {
        if (dram.read(0, 0x40000000 + i * 128, Cycle{}, 8))
            ++accepted;
    }
    EXPECT_EQ(accepted, 24u);
    // A demand (no reserve) still gets in.
    EXPECT_TRUE(dram.read(0, 0x41000000, Cycle{}).has_value());
}

TEST(Dram, WritebacksAreNeverRejected)
{
    DramSystem dram(params(), 1);
    for (unsigned i = 0; i < 32; ++i)
        dram.read(0, 0x40000000 + i * 128, Cycle{});
    // Buffer is full, but writebacks still go through (and consume
    // bus bandwidth): the evicting cache has nowhere to stall into.
    std::uint64_t before = dram.busTransactions();
    dram.writeback(0, 0x42000000, Cycle{});
    EXPECT_EQ(dram.busTransactions(), before + 1);
    // The posted writeback transiently overshoots the capacity.
    EXPECT_EQ(dram.bufferOccupancy(Cycle{}), 33u);
}

TEST(Dram, WritebacksOccupyRequestBufferEntries)
{
    DramSystem dram(params(), 1); // 32 entries
    EXPECT_EQ(dram.bufferOccupancy(Cycle{}), 0u);
    for (unsigned i = 0; i < 32; ++i)
        dram.writeback(0, 0x40000000 + i * 128, Cycle{});
    EXPECT_EQ(dram.bufferOccupancy(Cycle{}), 32u);
    // A writeback burst fills the buffer and refuses later reads —
    // the bandwidth contention the per-core request-buffer limit is
    // supposed to model.
    EXPECT_FALSE(dram.read(0, 0x41000000, Cycle{}).has_value());
}

TEST(Dram, WritebackOccupancyDrainsAtBusCompletion)
{
    DramSystem dram(params(), 1);
    for (unsigned i = 0; i < 32; ++i)
        dram.writeback(0, 0x40000000 + i * 128, Cycle{});
    // All writebacks have completed their bus transfers well before
    // front + 32 * (bank + bus) cycles; the buffer is empty again.
    const Cycle horizon =
        params().frontLatency +
        32 * (params().bankBusy.raw() + params().busTransfer.raw());
    EXPECT_EQ(dram.bufferOccupancy(horizon), 0u);
    EXPECT_TRUE(dram.read(0, 0x41000000, horizon).has_value());
}

TEST(Dram, WritebacksDelayLaterReads)
{
    DramSystem dram(params(), 1);
    for (unsigned i = 0; i < 8; ++i)
        dram.writeback(0, 0x40000000 + i * 128, Cycle{});
    Cycle done = *dram.read(0, 0x41000000, Cycle{});
    // The read's bus slot comes after the writebacks'.
    EXPECT_GT(done, Cycle{450});
}

TEST(Dram, MultiCoreBufferScales)
{
    DramSystem dram(params(), 4);
    EXPECT_EQ(dram.bufferCapacity(), 32u * 4);
}

TEST(Dram, OccupancyReflectsInFlightReads)
{
    DramSystem dram(params(), 1);
    Cycle done = *dram.read(0, 0x40000000, Cycle{});
    EXPECT_EQ(dram.bufferOccupancy(Cycle{}), 1u);
    EXPECT_EQ(dram.bufferOccupancy(done), 0u);
}

TEST(Dram, ContentionRaisesLatencyOfLaterRequests)
{
    // The Section 4 premise: a burst of (prefetch) requests inflates
    // the latency of a subsequent (demand) request.
    DramSystem quiet(params(), 1);
    Cycle alone = *quiet.read(0, 0x40000000, Cycle{});

    DramSystem busy(params(), 1);
    for (unsigned i = 0; i < 16; ++i)
        busy.read(0, 0x41000000 + i * 128, Cycle{}, 8);
    Cycle contended = *busy.read(0, 0x40000000, Cycle{});
    EXPECT_GT(contended, alone);
}

} // namespace
} // namespace ecdp
