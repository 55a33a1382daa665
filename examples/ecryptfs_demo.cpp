// Encrypted file system demo (§7.7): mount the AES-GCM eCryptfs over
// the modeled lower FS with different cipher engines, store and verify
// a file, and compare the engines' virtual-time cost.

#include <cstdio>
#include <cstring>
#include <vector>

#include "core/lake.h"
#include "crypto/engines.h"
#include "fs/ecryptfs.h"

using namespace lake;

int
main()
{
    core::Lake lake(core::LakeConfig::paper());
    std::uint8_t key[32];
    for (int i = 0; i < 32; ++i)
        key[i] = static_cast<std::uint8_t>(0xA5 ^ i);

    // An 8 MiB "database file" with recognizable content.
    std::vector<std::uint8_t> db(8 << 20);
    for (std::size_t i = 0; i < db.size(); ++i)
        db[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 24);

    gpu::CpuSpec cpu_spec = lake.config().cpu;
    crypto::CpuCipher sw(key, 32, lake.clock(), cpu_spec);
    crypto::AesNiCipher ni(key, 32, lake.clock(), cpu_spec);
    crypto::LakeGpuCipher gpu_eng(key, 32, lake.lib(), 1 << 20);

    std::printf("%-8s %14s %14s %14s\n", "engine", "write (ms)",
                "read (ms)", "verified");

    crypto::CipherEngine *engines[] = {&sw, &ni, &gpu_eng};
    for (crypto::CipherEngine *engine : engines) {
        fs::ECryptFs fs(*engine, lake.clock(), fs::LowerFsModel::testbed(),
                        128 << 10);

        Nanos t0 = lake.clock().now();
        Status st = fs.writeFile("/db/users.tbl", db.data(), db.size());
        double write_ms = toMs(lake.clock().now() - t0);
        if (!st.isOk()) {
            std::printf("write failed: %s\n", st.toString().c_str());
            return 1;
        }

        t0 = lake.clock().now();
        auto back = fs.readFile("/db/users.tbl");
        double read_ms = toMs(lake.clock().now() - t0);

        bool ok = back.isOk() && back.value() == db;
        std::printf("%-8s %14.2f %14.2f %14s\n", engine->name(),
                    write_ms, read_ms, ok ? "yes" : "NO");
        if (!ok)
            return 1;
    }

    // Stored bytes are ciphertext: demonstrate tamper detection.
    {
        fs::ECryptFs fs(sw, lake.clock(), fs::LowerFsModel::testbed(),
                        64 << 10);
        fs.writeFile("/secret", db.data(), 4096);
        std::printf("\nstored size of 4 KiB file: %zu bytes "
                    "(ciphertext + per-extent IV/tag)\n",
                    fs.storedSize("/secret"));
    }

    std::printf("GPU busy time accumulated on the device: %.1f ms\n",
                toMs(lake.device().computeBusy().totalBusy()));
    return 0;
}
